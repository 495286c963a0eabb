"""nahm-forge: exact q-series verification for Rogers-Ramanujan type
identities of generalized rank-two Nahm sums, a product-form recognizer,
and complex-numeric checks of vector-valued modular transformations."""

from .errors import (
    Divergent, NahmForgeError, NonSymmetric, NotIntegralLattice,
    NotPositiveDefinite, OrderTooLarge, SingularMatrix, TailTooLarge,
    UnknownId, WindowOverflow, ZeroLeadingTerm,
)
from .series import ParamSeries, QSeries, align, eq_to_order
from .products import (
    J, Jm, PochFactor, eta_quotient, jacobi_triple, pf, poch, product,
)
from .nahm import (
    NahmQuadruple, dual_quadruple, enumerate_lattice, nahm_sum,
    nahm_sum_param, quadruple,
)
from .recognizer import ExponentProfile, extract_profile, hunt
from .zlaurent import double_sum_ct
from .modular import check_transformation, relations
from .registry import IdentityRecord, VerifyReport, verify, verify_all

__version__ = "0.1.0"
