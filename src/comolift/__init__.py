"""comolift: represent integrable pairs as conditional expectations of
comonotone pairs, constructively and with machine-checkable certificates.

The pipeline: a staircase curve through nested parallelogram balls
(:mod:`~comolift.geometry`), a two-point convex decomposition along it
(:mod:`~comolift.decomposition`), a finite conditionally-atomless model
(:mod:`~comolift.filtration`), per-atom two-point laws and their sampler
(:mod:`~comolift.lifting`), the verifier (:mod:`~comolift.verification`),
and file formats plus a CLI (:mod:`~comolift.io`, :mod:`~comolift.cli`).
"""

from .errors import ComoliftError, InputFormatError, InvalidEventError, InvalidInputError
from .geometry import (
    GAUGE_CAP,
    MAX_STAGE,
    Point2,
    Segment,
    curve_distance,
    curve_segments,
    gauge,
    on_curve,
    scale_index,
)
from .decomposition import Decomposition, decompose
from .filtration import (
    Atom,
    EventF2,
    FiltrationModel,
    atomless_split,
    b_t_event,
    cond_exp_indicator,
    u_le_h_event,
)
from .lifting import LiftedLaw, Samples, lift, lifted_norm_bound, sample_lift
from .verification import (
    CheckRow,
    VerificationReport,
    check_comonotone_pairwise,
    check_comonotone_witness,
    verify_model,
)
from .io import export_curve, ingest_atoms, read_law_csv, write_law_csv, write_samples_csv

__version__ = "0.1.0"

__all__ = [
    "ComoliftError",
    "InvalidInputError",
    "InvalidEventError",
    "InputFormatError",
    "GAUGE_CAP",
    "MAX_STAGE",
    "Point2",
    "Segment",
    "gauge",
    "scale_index",
    "curve_segments",
    "curve_distance",
    "on_curve",
    "Decomposition",
    "decompose",
    "Atom",
    "FiltrationModel",
    "EventF2",
    "cond_exp_indicator",
    "b_t_event",
    "u_le_h_event",
    "atomless_split",
    "LiftedLaw",
    "Samples",
    "lift",
    "sample_lift",
    "lifted_norm_bound",
    "CheckRow",
    "VerificationReport",
    "check_comonotone_pairwise",
    "check_comonotone_witness",
    "verify_model",
    "ingest_atoms",
    "read_law_csv",
    "write_law_csv",
    "write_samples_csv",
    "export_curve",
    "__version__",
]
