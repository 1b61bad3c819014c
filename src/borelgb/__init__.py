"""Borel closures, sorted factorizations, and quadratic Gröbner certificates
for the toric rings of principal (support-restricted) Borel ideals."""

from .borel import borel_closure, borel_member, min_borel_divisor
from .families import (BiAdjacency, FamilyEntry, IdealFamily,
                       find_lfree_column_order, incidence_matrix,
                       is_chordal_bipartite, lfree_witness, parse_family,
                       reduce_family, serialize_family)
from .monomials import AmbientMismatch, Monomial, ParseError, parse_monomial
from .quadrics import (MultiQuadrics, QuadricSet, quadrics_bs_form,
                       quadrics_multi, quadrics_single)
from .sorting import borel_sort
from .toric import (Binomial, FiberGraph, FiberSetup, GeneratorVar,
                    ResourceLimitError, TProduct, enumerate_fiber, fiber_graph,
                    iterate_images, spair_certificate, t_min, to_dot,
                    verify_groebner_by_fibers)

__version__ = "0.1.0"
