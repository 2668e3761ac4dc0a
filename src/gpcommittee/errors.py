"""Exception types shared across the library.

Bad data raises :class:`DataError` whichever layer finds it: a CSV cell or
header, a training or test row that is not finite, training rows and targets
of different counts, or test targets too few or too constant to score. The
other types name a failed computation, a bad optimizer start or a partition
that cannot be built or used.
"""

from __future__ import annotations


class GPCommitteeError(Exception):
    """Base class for library-specific failures."""


class NumericalBreakdown(GPCommitteeError):
    """A numerical step failed: the Cholesky jitter ladder ran out, LAPACK
    ``trtri`` could not invert a factor, or a fused prediction's variances
    were not finite and strictly positive.

    The GP core raises it with no index. Only ``ensemble._for_expert`` and
    ``aggregate.npae``, which know the committee position, re-raise it with
    ``expert_index`` or ``test_index`` set.

    Attributes
    ----------
    jitters_tried : list[float]
        The jitter values attempted, in order (empty when no ladder ran).
    expert_index : int or None
        Index of the expert whose step failed, when applicable.
    test_index : int or None
        Index of the test point whose per-point system failed, when applicable.
    """

    def __init__(self, message, jitters_tried=None, expert_index=None, test_index=None):
        super().__init__(message)
        self.jitters_tried = list(jitters_tried) if jitters_tried is not None else []
        self.expert_index = expert_index
        self.test_index = test_index


class InvalidStart(GPCommitteeError):
    """The objective is non-finite at the optimizer's initial point."""


class InvalidPartition(GPCommitteeError):
    """Partition arguments are inconsistent (e.g. more subsets than points)."""


class MissingCommunicationSubset(GPCommitteeError):
    """GRBCM has no communication subset: the partition is a disjoint one."""


class DataError(GPCommitteeError):
    """Input data the library cannot use (see the module docstring)."""
