"""Code-side references that only the tests use: the weight-k error vectors,
and fig5's amplitude overlap 4a^2(1-a^2), per residual class and as the
fidelity F(a) of a tally.  The package writes no amplitude column, so the
overlap lives here, once."""

from itertools import combinations

from steane_mc.codebook import ErrorClass, ResidualClass


def weight_k_vectors(k: int) -> list[int]:
    return [sum(1 << i for i in idx) for idx in combinations(range(7), k)]


def overlap_factor(cls: ResidualClass, a: float) -> float:
    """Squared overlap with the ideal encoded state a|0_L> + b|1_L>, b real >= 0.

    A logical X alone contributes |2ab|^2, a logical Z alone |a^2-b^2|^2, a
    combined logical XZ is taken as overlap 0, and any detectable (weight 1
    or 2) residual is orthogonal to the ideal state.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"amplitude a must lie in [0, 1], got {a}")
    b_sq = 1.0 - a * a
    x, z = cls.x_class, cls.z_class
    if x in (ErrorClass.CORRECTABLE_W1, ErrorClass.MISCORRECT_W2):
        return 0.0
    if z in (ErrorClass.CORRECTABLE_W1, ErrorClass.MISCORRECT_W2):
        return 0.0
    x_log = x is ErrorClass.LOGICAL
    z_log = z is ErrorClass.LOGICAL
    if x_log and z_log:
        return 0.0
    if x_log:
        return 4.0 * a * a * b_sq
    if z_log:
        return (a * a - b_sq) ** 2
    return 1.0


def delta_eta3(st) -> float:
    """eta3b - eta3p of a `TrialStats`."""
    return st.eta3_b - st.eta3_p


def fidelity_at(st, a: float) -> float:
    """Analytic F(a) = eta0 + eta3p + 4 a^2 (1-a^2) (eta3b - eta3p) of a
    `TrialStats`."""
    if not 0.0 <= a <= 1.0:
        raise ValueError("a must lie in [0, 1]")
    return st.eta0 + st.eta3_p + 4.0 * a * a * (1.0 - a * a) * delta_eta3(st)
