"""Workbench for finite quandles and one infinite two-orbit quandle.

The finite side: validated operation tables, orbit decompositions,
single-orbit reversal, and quotients by the smallest congruence forcing the
medial law or a translation-order bound.  The infinite side: exact
arithmetic in the ring Z[t, 1/t] modulo t^2 + t - 1, the two-orbit affine
quandle over it, and a machine verification that reversing the second orbit
and forcing the medial law collapses the carrier to exactly two elements.
"""

from .affine import (AffineExpr, Point, SymPoint, op, op_inv, orbit_witness,
                     parse_point, reversed_op)
from .collapse import (CollapseError, CollapseLattice, CollapseReport,
                       ExpansionMismatch, NonUniformRelation, WitnessFailure,
                       combine_shifts, derive_relation, expand_lhs, expand_rhs,
                       hnf_close, orbit2_collapse, relation_assignments,
                       verify_theorem)
from .quandle import (AxiomError, AxiomReport, FiniteQuandle,
                      InternalAxiomFailure, MalformedTable, affine_quandle,
                      check_axioms, dihedral_quandle, parse_table_text,
                      relabel, render_table_text, trivial_quandle)
from .ring import (ONE, T, T_INV, T_SQ, ZERO, RingElem, parse_elem, reduce,
                   render_elem, render_pair)
from .variety import (MEDIAL, Congruence, IdentitySpec, n_quandle,
                      quotient_by_identity)

__version__ = "0.1.0"

__all__ = [
    "AffineExpr", "AxiomError", "AxiomReport", "CollapseError",
    "CollapseLattice", "CollapseReport", "Congruence", "ExpansionMismatch",
    "FiniteQuandle", "IdentitySpec", "InternalAxiomFailure", "MEDIAL",
    "MalformedTable", "NonUniformRelation", "ONE", "Point", "RingElem",
    "SymPoint", "T", "T_INV", "T_SQ", "WitnessFailure", "ZERO",
    "affine_quandle", "check_axioms", "combine_shifts", "derive_relation",
    "dihedral_quandle", "expand_lhs", "expand_rhs", "hnf_close",
    "n_quandle", "op", "op_inv", "orbit2_collapse", "orbit_witness",
    "parse_elem", "parse_point", "parse_table_text",
    "quotient_by_identity", "reduce", "relabel", "relation_assignments",
    "render_elem", "render_pair", "render_table_text", "reversed_op",
    "trivial_quandle", "verify_theorem",
]
