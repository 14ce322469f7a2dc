"""Semi-Hilbertian operator radii under a positive-semidefinite metric.

Build a :class:`~semidw.metric.Metric` from a Hermitian PSD matrix A, then
compute A-adjoints and the scalar functionals ||T||_A, m_A, w_A, c_A and
the Davis-Wielandt radius dw_A for A-bounded operators; evaluate the full
catalog of lower/upper bounds on dw_A; and use the exact closed forms for
the [[I,X],[O,O]] and [[O,X],[O,O]] blocks under diag(A, A).
"""

from .bounds import (
    BoundRecord,
    VerificationReport,
    cartesian_half,
    feki_sum_upper,
    lower_crawford,
    normaloid_equality_check,
    norm_sq_equality_check,
    offdiag_upper,
    product_sum_upper,
    product_sum_upper_b,
    product_sum_upper_c,
    sandwich,
    sum_upper,
    upper_buzano,
    upper_lambda_complex,
    upper_lambda_theta,
    upper_theta_sweep,
    upper_triple,
    verify_all,
    zero_equality_check,
)
from .errors import (
    BOutOfRange,
    DegenerateNorm,
    DimensionMismatch,
    EmptyMatrix,
    NonFiniteReference,
    NonpositiveB,
    NormOutOfRange,
    NotABounded,
    NotHermitian,
    NotInBA,
    NotPositiveSemidefinite,
    ParseError,
    PreconditionError,
    RankTooLarge,
    SemidwError,
    ZeroT,
)
from .exact import CardanoData, cardano_theta0, dw_exact_0x, dw_exact_ix, split_objective
from .metric import (
    Metric,
    as_operator,
    build_metric,
    compress,
    semi_inner,
    semi_norm_vec,
    to_ambient,
    to_coords,
)
from .radii import (
    RadiusEstimate,
    crawford,
    dw_radius,
    min_modulus,
    numerical_radius,
    numrange_distance,
    op_seminorm,
    oracle_extremum,
)
from .semiop import (
    BlockOperator,
    abs_sq,
    block2,
    block_sharp,
    bounded_part,
    double_metric,
    im_a,
    in_ba,
    is_a_bounded,
    is_a_normal,
    is_a_selfadjoint,
    is_a_unitary,
    re_a,
    sharp,
)

__version__ = "0.1.0"
