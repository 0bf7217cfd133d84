"""Reproducible random generation: parallelepipeds and rejection samplers.

Randomness comes from a fixed, documented, counter-based generator
("splitmix64-ctr-v1"): word k of a stream is the SplitMix64 finalizer
applied to s0 + (k+1) * GAMMA mod 2^64, where s0 is derived from (seed,
stream id).  Every bounded draw owns a disjoint block of 64 words and
rejection-samples masked words from its block, so any draw is a pure
function of (seed, stream, draw index) - independent of platform, worker
count, and batch size.  An attempt past the end of the block takes its
words from an overflow sub-stream keyed by (draw index, attempt), so no
bound exhausts a draw.  Draw indices are handed out by a monotone cursor
on the stream.

Candidate points for a parallelepiped are drawn uniformly from its
integer bounding box and accepted by the exact test 0 <= (T (z - t))_i <
L in integer arithmetic (T is the sign-adjusted adjugate, L = |det|, and
membership is half-open to match the half-open windows used everywhere).
A vectorized int64 engine is used when precomputed magnitude bounds rule
out overflow; otherwise a big-integer engine computes the identical
sequence.  No floating point participates in any accept/reject decision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exactmat import ExactMatrix, RationalMatrix, det
from .lattice import LatticeBasis, Window, _ceil, _floor

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1342543DE82EF95
_WORDS_PER_DRAW = 64
_OVERFLOW_SALT = 0x8CB92BA72F3D8DD7
# every attempt accepts with probability > 1/2, so reaching this many
# rejections in a row means the generator itself is broken
_MAX_ATTEMPTS = 1024
_INT64_GUARD = 1 << 62

ALGORITHM_ID = "splitmix64-ctr-v1"


class SamplerError(RuntimeError):
    """Rejection sampling gave up; carries the observed acceptance rate."""

    def __init__(self, message: str, acceptance_estimate: float):
        super().__init__(message)
        self.acceptance_estimate = acceptance_estimate


def _mix64(z: int) -> int:
    z &= _M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return z


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class RngStream:
    """One logical randomness stream of the counter-based generator.

    The (seed, stream) pair fully determines the word sequence; the
    cursor only allocates draw indices, so rewinding or re-deriving the
    stream is always safe.  Each parallel task owns its own stream id.
    """

    algorithm = ALGORITHM_ID

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        self._s0 = _mix64(
            (_mix64(self.seed & _M64) + (self.stream & _M64) * _STREAM_SALT) & _M64
        )
        self._overflow_s0 = _mix64(self._s0 ^ _OVERFLOW_SALT)
        self.draw_cursor = 0

    def provenance(self) -> dict:
        return {"algorithm": self.algorithm, "seed": self.seed, "stream": self.stream}

    def word(self, index: int) -> int:
        return _mix64((self._s0 + ((index + 1) * _GAMMA)) & _M64)

    def words_np(self, indices: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return _mix64_np(
                np.uint64(self._s0)
                + (indices + np.uint64(1)) * np.uint64(_GAMMA)
            )

    def overflow_word(self, index: int, attempt: int, w: int) -> int:
        """Word w of an attempt of draw ``index`` past the end of its block:
        the sub-stream keyed by (index, attempt)."""
        key = _mix64(_mix64(self._overflow_s0 + index) + attempt)
        return _mix64(key + (w + 1) * _GAMMA)

    def overflow_words_np(self, indices: np.ndarray, attempt: int) -> np.ndarray:
        """``overflow_word(index, attempt, 0)`` for an array of indices."""
        with np.errstate(over="ignore"):
            key = _mix64_np(
                _mix64_np(np.uint64(self._overflow_s0) + indices) + np.uint64(attempt)
            )
            return _mix64_np(key + np.uint64(_GAMMA))

    def draw_below(self, bound: int, index: Optional[int] = None) -> int:
        """Uniform integer in [0, bound) from the word block of one draw
        index (allocated from the cursor when not given)."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        if index is None:
            index = self.draw_cursor
            self.draw_cursor += 1
        if bound == 1:
            return 0
        bits = (bound - 1).bit_length()
        nwords = (bits + 63) // 64
        mask = (1 << bits) - 1
        base = index * _WORDS_PER_DRAW
        in_block = _WORDS_PER_DRAW // nwords
        for attempt in range(_MAX_ATTEMPTS):
            x = 0
            for w in range(nwords):
                if attempt < in_block:
                    word = self.word(base + attempt * nwords + w)
                else:
                    word = self.overflow_word(index, attempt, w)
                x |= word << (64 * w)
            x &= mask
            if x < bound:
                return x
        raise SamplerError(
            f"{_MAX_ATTEMPTS} draws rejected for bound {bound}: generator fault",
            acceptance_estimate=0.0,
        )

    def draw_int(self, lo: int, hi: int, index: Optional[int] = None) -> int:
        """Uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.draw_below(hi - lo + 1, index)


# ---------------------------------------------------------------------------
# parallelepipeds
# ---------------------------------------------------------------------------


class Parallelepiped:
    """{V a + translate : a in [0,1)^n} for integer generator columns V.

    Degenerate spans (det V = 0) are rejected at construction.
    """

    def __init__(
        self,
        generators: Sequence[Sequence[int]],
        translate: Optional[Sequence[int]] = None,
        resamples: int = 0,
    ):
        n = len(generators)
        if n < 1 or any(len(g) != n for g in generators):
            raise ValueError("need n generators of length n")
        self.generators = tuple(tuple(int(x) for x in g) for g in generators)
        self.dim = n
        self.translate = (
            tuple(int(x) for x in translate) if translate is not None else (0,) * n
        )
        if len(self.translate) != n:
            raise ValueError("translate length mismatch")
        self.matrix = ExactMatrix.from_columns(self.generators)
        self.det = det(self.matrix)
        if self.det == 0:
            raise ValueError("degenerate parallelepiped: generators are dependent")
        self.resamples = resamples
        self._membership: Optional[tuple[list[list[int]], int]] = None

    def _membership_data(self):
        """(test rows T, limit L) with membership: 0 <= (T (z - t))_i < L."""
        if self._membership is not None:
            return self._membership
        n = self.dim
        inv = RationalMatrix(
            n, n, [Fraction(e) for e in self.matrix.entries]
        ).inverse()
        sign = 1 if self.det > 0 else -1
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                e = inv.entry(i, j) * self.det * sign
                if e.denominator != 1:
                    raise AssertionError("adjugate must be integral")
                row.append(e.numerator)
            rows.append(row)
        self._membership = (rows, abs(self.det))
        return self._membership

    def integer_box(self) -> list[tuple[int, int]]:
        """Inclusive coordinate ranges covering all integer points."""
        out = []
        for i in range(self.dim):
            row = [self.generators[j][i] for j in range(self.dim)]
            lo = self.translate[i] + sum(min(0, x) for x in row)
            hi = self.translate[i] + sum(max(0, x) for x in row)
            out.append(
                _half_open_range(
                    Fraction(lo),
                    Fraction(hi),
                    any(x < 0 for x in row),
                    any(x > 0 for x in row),
                )
            )
        return out

    def contains_integer_point(self, z: Sequence[int]) -> bool:
        rows, limit = self._membership_data()
        w = [int(z[i]) - self.translate[i] for i in range(self.dim)]
        for row in rows:
            u = sum(r * x for r, x in zip(row, w))
            if u < 0 or u >= limit:
                return False
        return True

    def enumerate_integer_points(self, guard: int = 200000) -> list[tuple[int, ...]]:
        """Exhaustive integer points (small instances; testing support)."""
        box = self.integer_box()
        size = 1
        for lo, hi in box:
            size *= max(0, hi - lo + 1)
        if size > guard:
            raise ValueError(f"enumeration box too large ({size})")
        rows, limit = self._membership_data()
        out = []
        t = self.translate
        import itertools

        for z in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
            w = [z[i] - t[i] for i in range(self.dim)]
            if all(0 <= sum(r * x for r, x in zip(row, w)) < limit for row in rows):
                out.append(z)
        return out

    def sampler(
        self, rng: RngStream, max_rejects: int = 10**6, force_exact: bool = False
    ) -> "RejectionSampler":
        rows, limit = self._membership_data()
        return RejectionSampler(
            rng,
            self.integer_box(),
            self.translate,
            rows,
            limit,
            max_rejects=max_rejects,
            force_exact=force_exact,
        )


def _half_open_range(
    lo: Fraction, hi: Fraction, has_negative: bool, has_positive: bool
) -> tuple[int, int]:
    """Integer range for a coordinate whose real range is (lo, hi) with
    the endpoints attained exactly when the matching sign is absent."""
    lo_int = _ceil(lo)
    if lo_int == lo and has_negative:
        lo_int += 1
    hi_int = _floor(hi)
    if hi_int == hi and has_positive:
        hi_int -= 1
    return lo_int, hi_int


def random_parallelepiped(n: int, c: int, rng: RngStream) -> Parallelepiped:
    """n generator vectors with coordinates uniform on the integers of
    [-C, C]; degenerate draws are resampled (and counted), 64 degenerate
    draws in a row signal a generator fault and raise."""
    if c < 1:
        raise ValueError("C must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    resamples = 0
    while True:
        generators = [
            [rng.draw_int(-c, c) for _ in range(n)] for _ in range(n)
        ]
        try:
            return Parallelepiped(generators, resamples=resamples)
        except ValueError:
            resamples += 1
            if resamples >= 64:
                raise SamplerError(
                    "64 consecutive degenerate parallelepipeds: generator fault",
                    acceptance_estimate=0.0,
                )


# ---------------------------------------------------------------------------
# rejection sampling core
# ---------------------------------------------------------------------------


class RejectionSampler:
    """Uniform sampling of {z integer : all 0 <= (T (z - t))_i < L} via
    candidates drawn from an integer box.

    Candidates are numbered by the stream cursor; the k-th accepted
    candidate is sample k, and after ``take`` the cursor sits right past
    the candidate that produced the last returned sample.  The vectorized
    engine and the big-integer engine therefore produce bit-identical
    sample streams; the engine choice depends only on magnitude bounds
    precomputed from the box and test matrix, never on sampled values.
    """

    def __init__(
        self,
        rng: RngStream,
        box: Sequence[tuple[int, int]],
        translate: Sequence[int],
        test_rows: Sequence[Sequence[int]],
        limit: int,
        max_rejects: int = 10**6,
        force_exact: bool = False,
    ):
        self.rng = rng
        self.box = [(int(lo), int(hi)) for lo, hi in box]
        self.translate = [int(x) for x in translate]
        self.test_rows = [[int(x) for x in row] for row in test_rows]
        self.limit = int(limit)
        self.max_rejects = max_rejects
        self.n = len(self.box)
        if any(hi < lo for lo, hi in self.box):
            raise ValueError("empty candidate box")
        self.ranges = [hi - lo + 1 for lo, hi in self.box]
        self.candidates = 0
        self.accepted = 0
        self._since_accept = 0
        self._fast = not force_exact and self._int64_safe()
        if self._fast:
            self._np_lo = np.array([lo for lo, _ in self.box], dtype=np.int64)
            self._np_t = np.array(self.translate, dtype=np.int64)
            self._np_rows = np.array(self.test_rows, dtype=np.int64)
            bits = [(r - 1).bit_length() for r in self.ranges]
            self._np_mask = np.array([(1 << b) - 1 for b in bits], dtype=np.uint64)
            self._np_range = np.array(self.ranges, dtype=np.uint64)

    def _int64_safe(self) -> bool:
        if self.limit >= _INT64_GUARD:
            return False
        if any(r >= _INT64_GUARD for r in self.ranges):
            return False
        w_max = 0
        for (lo, hi), t in zip(self.box, self.translate):
            w_max = max(w_max, abs(lo - t), abs(hi - t))
        t_max = max((max(abs(x) for x in row) for row in self.test_rows), default=0)
        if any(max(abs(lo), abs(hi)) >= _INT64_GUARD for lo, hi in self.box):
            return False
        return self.n * t_max * w_max < _INT64_GUARD

    @property
    def acceptance_estimate(self) -> float:
        if self.candidates == 0:
            return 1.0
        return self.accepted / self.candidates

    def _reject_overflow(self, gap: int):
        if gap > self.max_rejects:
            raise SamplerError(
                f"exceeded {self.max_rejects} rejects for one sample "
                f"(acceptance so far {self.acceptance_estimate:.3g})",
                acceptance_estimate=self.acceptance_estimate,
            )

    def take(self, count: int) -> list[tuple[int, ...]]:
        if count < 0:
            raise ValueError("count must be >= 0")
        if self._fast:
            return self._take_fast(count)
        return self._take_exact(count)

    # -- big-integer engine ------------------------------------------------

    def _take_exact(self, count: int) -> list[tuple[int, ...]]:
        rng = self.rng
        n = self.n
        out: list[tuple[int, ...]] = []
        while len(out) < count:
            base = rng.draw_cursor
            rng.draw_cursor += n
            z = [
                self.box[i][0] + rng.draw_below(self.ranges[i], base + i)
                for i in range(n)
            ]
            self.candidates += 1
            w = [z[i] - self.translate[i] for i in range(n)]
            ok = True
            for row in self.test_rows:
                u = 0
                for r, x in zip(row, w):
                    u += r * x
                if u < 0 or u >= self.limit:
                    ok = False
                    break
            if ok:
                out.append(tuple(z))
                self.accepted += 1
                self._since_accept = 0
            else:
                self._since_accept += 1
                self._reject_overflow(self._since_accept)
        return out

    # -- vectorized engine ---------------------------------------------------

    def _candidate_batch(self, base: int, batch: int) -> np.ndarray:
        """Candidate coordinates for draw indices [base, base + batch*n)."""
        n = self.n
        idx = np.arange(base, base + batch * n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            words = self.rng.words_np(idx * np.uint64(_WORDS_PER_DRAW))
        x = words.reshape(batch, n) & self._np_mask
        reject = x >= self._np_range
        attempt = 1
        while reject.any():
            if attempt >= _MAX_ATTEMPTS:
                raise SamplerError(
                    f"{_MAX_ATTEMPTS} draws rejected: generator fault",
                    self.acceptance_estimate,
                )
            pos = np.flatnonzero(reject.ravel())
            if attempt < _WORDS_PER_DRAW:
                with np.errstate(over="ignore"):
                    repl = self.rng.words_np(
                        idx[pos] * np.uint64(_WORDS_PER_DRAW) + np.uint64(attempt)
                    )
            else:
                repl = self.rng.overflow_words_np(idx[pos], attempt)
            cols = pos % self.n
            repl &= self._np_mask[cols]
            flat = x.ravel()
            flat[pos] = repl
            x = flat.reshape(batch, n)
            reject_flat = np.zeros(batch * n, dtype=bool)
            reject_flat[pos] = repl >= self._np_range[cols]
            reject = reject_flat.reshape(batch, n)
            attempt += 1
        return self._np_lo + x.astype(np.int64)

    def _take_fast(self, count: int) -> list[tuple[int, ...]]:
        rng = self.rng
        n = self.n
        out: list[tuple[int, ...]] = []
        while len(out) < count:
            need = count - len(out)
            rate = self.accepted / self.candidates if self.candidates else 0.5
            batch = int(need / max(rate, 1e-6) * 1.2) + 32
            batch = max(256, min(batch, 1 << 16))
            base = rng.draw_cursor
            z = self._candidate_batch(base, batch)
            u = (z - self._np_t) @ self._np_rows.T
            accept = ((u >= 0) & (u < self.limit)).all(axis=1)
            positions = np.flatnonzero(accept)
            if positions.size == 0:
                rng.draw_cursor = base + batch * n
                self.candidates += batch
                self._since_accept += batch
                self._reject_overflow(self._since_accept)
                continue
            taken = positions[: min(positions.size, need)]
            self._reject_overflow(self._since_accept + int(taken[0]))
            if taken.size > 1:
                gaps = np.diff(taken) - 1
                self._reject_overflow(int(gaps.max()))
            consumed = int(taken[-1]) + 1
            rng.draw_cursor = base + consumed * n
            self.candidates += consumed
            self.accepted += taken.size
            self._since_accept = 0
            for row in z[taken].tolist():
                out.append(tuple(row))
        return out


# ---------------------------------------------------------------------------
# public sampling operations
# ---------------------------------------------------------------------------


def sample_integer_point(
    parallelepiped: Parallelepiped, rng: RngStream, max_rejects: int = 10**6
) -> tuple[int, ...]:
    """One integer point of the parallelepiped, uniform over all of them."""
    return parallelepiped.sampler(rng, max_rejects=max_rejects).take(1)[0]


class WindowSampler:
    """Uniform lattice points of [0, B)^n via the coordinate-space
    parallelepiped X = {a : basis a in the window}: candidate coordinate
    vectors come from X's integer bounding box and are accepted by the
    exact half-open membership test."""

    def __init__(
        self,
        lattice: LatticeBasis,
        window: Window,
        rng: RngStream,
        max_rejects: int = 10**6,
        force_exact: bool = False,
    ):
        if window.dim != lattice.dim:
            raise ValueError("window dimension mismatch")
        self.lattice = lattice
        n = lattice.dim
        b = window.bound
        inv_rows = lattice.inverse.to_rows()
        box = []
        for row in inv_rows:
            lo = b * sum(min(e, 0) for e in row)
            hi = b * sum(max(e, 0) for e in row)
            box.append(
                _half_open_range(
                    lo, hi, any(e < 0 for e in row), any(e > 0 for e in row)
                )
            )
        # accept a iff 0 <= (scaled_basis a)_i * den < num * scale
        rows = [[e * b.denominator for e in row] for row in lattice._scaled_rows]
        limit = b.numerator * lattice._scale
        self._core = RejectionSampler(
            rng,
            box,
            (0,) * n,
            rows,
            limit,
            max_rejects=max_rejects,
            force_exact=force_exact,
        )

    @property
    def acceptance_estimate(self) -> float:
        return self._core.acceptance_estimate

    def take(self, count: int) -> list[tuple[Fraction, ...]]:
        return [
            self.lattice.point_from_coordinates(coords)
            for coords in self._core.take(count)
        ]


def sample_lattice_point_in_window(
    lattice: LatticeBasis,
    window: Window,
    rng: RngStream,
    max_rejects: int = 10**6,
) -> tuple[Fraction, ...]:
    """One uniform point of lattice ∩ [0, B)^n (the origin guarantees the
    set is nonempty)."""
    return WindowSampler(lattice, window, rng, max_rejects=max_rejects).take(1)[0]
