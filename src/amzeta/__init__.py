"""Exact invariants of central hyperplane arrangements and quivers.

Submodules:
  exact_algebra    Laurent polynomials and rational functions
  arrangement      lattices of flats, characteristic polynomials
  hypertoric       motivic classes of hypertoric varieties + fiber oracle
  quiver_varieties generating function for quiver-variety classes
  open_derham      closed-form classes of moduli of irregular connections
  igusa            zeta function of the arrangement moment map, pole analysis
  residues         residue at the largest pole and its numerator
  quiver_reps      indecomposable representation counts over finite depth
  padic_oracle     brute-force congruence counting and series reconciliation
  reference        transcribed regression constants and fixture inputs
  cli              the `amz` command-line front end
"""

__version__ = "0.1.0"
