"""Aperiodic sequence toolkit.

Factor atlases of primitive substitutions, palindrome exclusion for
minimal sequences, both constructions of the Rudin-Shapiro sequence,
one-dimensional cut-and-project model sets over real quadratic fields,
and finite-section probes of diagonal tight-binding operators.
"""

__version__ = "0.1.0"

from .words import (
    Alphabet,
    PalindromeVerdict,
    exclusion_verdict,
    inner,
    is_palindrome,
)
from .substitution import (
    FixedPointStream,
    NotPrimitiveError,
    SubstitutionRule,
    apply,
    atlas_by_induction,
    atlas_by_window,
    cover_words,
    complexity,
    fibonacci_rule,
    is_primitive,
    matrix,
    rule_from_dict,
    thue_morse_rule,
)
from .rudin_shapiro import (
    Table1Row,
    block_count_a,
    equivalence_check,
    phi,
    quaternary_rule,
    rs_binary_prefix,
    table1,
)
from .modelset import (
    FieldElement,
    ModelSetPatch,
    QuadField,
    Window,
    centro_symmetry_center,
    check_generic,
    enumerate_patch,
    genericity_shift,
    inversion_witness,
    palindrome_scan,
    star,
)
from .spectral import (
    TransferMatrixProduct,
    TridiagonalOperator,
    build_finite,
    eigenvalues,
    ids,
    sturm_count,
    transfer_product,
)
