"""Reproducible random generation: parallelepipeds with their coset
sampler, and the window sampler.

Randomness comes from a fixed, documented, counter-based generator
("splitmix64-ctr-v1"): word k of a stream is the SplitMix64 finalizer
applied to s0 + (k+1) * GAMMA mod 2^64, where s0 is derived from (seed,
stream id).  Every bounded draw owns a disjoint block of 64 words and
rejection-samples masked words from its block, so any draw is a pure
function of (seed, stream, draw index) - independent of platform, worker
count, and batch size.  An attempt past the end of the block takes its
words from an overflow sub-stream keyed by (draw index, attempt), so no
bound exhausts a draw.  Draw indices are handed out by a monotone cursor
on the stream, which only `_BoundedDraws` reads and advances: every
sampler below takes its draws as rows of k consecutive indices from it.

Parallelepipeds P = V [0,1)^n (integer generator columns V, det V != 0)
are sampled with no rejection ("coset-v1").  Every coset of V Z^n in Z^n
has exactly one point in P, so a uniform coset gives a uniform integer
point of P.  V is eliminated once, to its Smith form U V W = D =
diag(d_1 | ... | d_n), which also refuses a degenerate V (fewer than n
invariant factors is det V = 0).  D splits Z^n / V Z^n into the cyclic
factors Z/d_i, generated by the columns g_i of U^-1 = V W D^-1.  A
sample draws y_i uniformly in [0, d_i) for each d_i > 1 (sample j of a
take is row j of k draws, k the number of such factors, so a cell with
|det V| = 1 draws nothing)
and returns the point of P in the coset of sum y_i g_i.  In the
coordinates a = e V^-1 z, with e = d_n the largest factor, that point is

    z = V a / e,    a = sum_i y_i (e / d_i) w_i  mod e  (componentwise),

w_i column i of W: the big-integer engine computes exactly this, which
equals x - V floor(T x / |det V|) for x = sum y_i g_i and T = |det V| V^-1.

The int64 engine tabulates, per factor i, 4-bit digit position j and
digit v < 16, the pair (a, z) of v 16^j y_i's contribution (a in
[0, e), z = V a / e), and adds one table row per nibble of y_i.  Sums
keep z = V a / e, and so does a fold

    q = a // e (componentwise),    a -= e q,    z -= V q,

which brings a back into [0, e): after a last fold the pair is the point
of P.  The engine folds once per F = (2^63 - 1) // e - 1 additions and
once at the end.  Bound: after a fold (or at the start) every a_r lies
in [0, e), and each addition adds at most e - 1, so t additions later
0 <= a_r < (t + 1) e <= (F + 1) e <= 2^63 - 1 for t <= F: a never
leaves int64.  The engine runs when e < 2^62, which makes
(2^63 - 1) // e >= 2 and F >= 1, and when every row of V has absolute
sum below 2^62: every coordinate z_r = sum_j V_rj a_j / e (0 <= a_j < e)
of a point of P is below sum_j |V_rj| in magnitude, so the points of P
(each table entry and each folded sum) and the entries of V fit in 62
bits.  The z updates (V q included) are ring operations mod 2^64 whose
exact result, a point of P, fits, so any wrap-around cancels.  Both
engines map the same y to the same point, so their streams are
bit-identical.  Only the int64 engine uses numpy, and it imports numpy
in the functions that need it: the RNG, the big-integer engine and the
window sampler run without it, so `latgen fullrank-check` never loads it.

The lattice window [0, B)^n is passed as its bound B.  In basis
coordinates it is a half-open cell (``lattice.window_cell``, which
refuses B <= 0) with no such quotient structure at hand.
`WindowSampler` draws candidates uniformly from the cell's box and
accepts them by the cell's exact test 0 <= (R z)_i < L, one candidate at
a time in Python integers.  There is no vectorized window engine: a batch
computes candidates past the last one a take uses, and full-rank trials
take only n points each, so a batch spends more than it saves.  No
floating point participates in any accept/reject decision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence, Union

from .exactmat import snf_with_transforms
from .lattice import LatticeBasis, window_cell

if TYPE_CHECKING:
    import numpy as np

_M64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD1342543DE82EF95
_WORDS_PER_DRAW = 64
_OVERFLOW_SALT = 0x8CB92BA72F3D8DD7
# every attempt accepts with probability > 1/2, so reaching this many
# rejections in a row means the generator itself is broken
_MAX_ATTEMPTS = 1024
_INT64_GUARD = 1 << 62
_INT64_MAX = (1 << 63) - 1
# consecutive rejected window candidates before a window sampler gives up
_MAX_REJECTS = 10**6

ALGORITHM_ID = "splitmix64-ctr-v1"
COSET_ALGORITHM_ID = ALGORITHM_ID + "+coset-v1"


class SamplerError(RuntimeError):
    """Sampling gave up; the message says why."""


def _mix64(z: int) -> int:
    z &= _M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return z


def _mix64_np(z: np.ndarray) -> np.ndarray:
    import numpy as np
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(0xBF58476D1CE4E5B9)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class RngStream:
    """One logical randomness stream of the counter-based generator.

    The (seed, stream) pair fully determines the word sequence; the cursor
    (the next free draw index) only allocates indices, so rewinding or
    re-deriving the stream is safe.  Each parallel task owns its stream id.
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
        import numpy as np
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

    def draw_below(self, bound: int, index: int) -> int:
        """Uniform integer in [0, bound) from the word block of draw
        ``index``."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
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
        raise SamplerError(f"{_MAX_ATTEMPTS} draws rejected for bound {bound}: generator fault")


class _BoundedDraws:
    """Rows of bounded draws, the one allocator of a stream's draw indices:
    a row takes the next k indices from ``rng.draw_cursor``, draw i below
    bounds[i].  ``rows(batch)`` gives the values of ``batch`` calls of
    ``row()`` at once (bounds below 2^64 only): it vectorizes the attempts
    inside each draw's block and hands a draw still rejected at the end of
    its block to ``draw_below``, which replays the block and goes on into
    the overflow sub-stream."""

    def __init__(self, rng: RngStream, bounds: Sequence[int]):
        self.rng = rng
        self.bounds = list(bounds)

    def row(self) -> list[int]:
        base = self.rng.draw_cursor
        self.rng.draw_cursor += len(self.bounds)
        return [self.rng.draw_below(b, base + i) for i, b in enumerate(self.bounds)]

    def rows(self, batch: int) -> np.ndarray:
        import numpy as np
        k = len(self.bounds)
        base = self.rng.draw_cursor
        self.rng.draw_cursor += batch * k
        mask = np.array([(1 << (b - 1).bit_length()) - 1 for b in self.bounds], dtype=np.uint64)
        bound = np.array(self.bounds, dtype=np.uint64)
        idx = np.arange(base, base + batch * k, dtype=np.uint64)
        with np.errstate(over="ignore"):
            words = self.rng.words_np(idx * np.uint64(_WORDS_PER_DRAW))
        x = words.reshape(batch, k) & mask
        pos = np.flatnonzero(x >= bound)
        flat = x.ravel()  # a view: writes to it land in x
        for attempt in range(1, _WORDS_PER_DRAW):
            if not len(pos):
                break
            cols = pos % k
            with np.errstate(over="ignore"):
                repl = self.rng.words_np(
                    idx[pos] * np.uint64(_WORDS_PER_DRAW) + np.uint64(attempt)
                )
            repl &= mask[cols]
            flat[pos] = repl
            pos = pos[repl >= bound[cols]]
        for p in pos.tolist():
            flat[p] = self.rng.draw_below(self.bounds[p % k], base + p)
        return x


# ---------------------------------------------------------------------------
# parallelepipeds
# ---------------------------------------------------------------------------


class Parallelepiped:
    """{V a : a in [0,1)^n} for integer generator columns V, and its
    uniform integer points, one uniform coset of V Z^n per sample (the
    module docstring gives the method).

    One Smith form of V gives everything: fewer than n invariant factors
    (det V = 0) are refused at construction, and the factors and the
    column transform give the coset map.  ``take(rng, count)`` computes
    count rows of k draws (k nontrivial Smith factors) in one pass, so a
    caller that needs many points takes them in chunks, which leave the
    stream as it is; the engine depends only on V, never on sampled values.
    """

    def __init__(self, generators: Sequence[Sequence[int]], resamples: int = 0):
        n = len(generators)
        if n < 1 or any(len(g) != n for g in generators):
            raise ValueError("need n generators of length n")
        self.generators = tuple(tuple(int(x) for x in g) for g in generators)
        self.dim = n
        divisors, _, w = snf_with_transforms(self.generators, n)
        if len(divisors) < n:
            raise ValueError("degenerate parallelepiped: generators are dependent")
        self.resamples = resamples
        e = divisors[-1]
        kept = [i for i, d in enumerate(divisors) if d > 1]
        self._exponent = e
        self._bounds = [divisors[i] for i in kept]
        # g_i = V w_i / d_i in the coordinates a = e V^-1 z, reduced mod e
        self._steps = [
            [(e // divisors[i]) * (w[r][i] % divisors[i]) for r in range(n)]
            for i in kept
        ]
        self._fast = e < _INT64_GUARD and all(
            sum(abs(x) for x in row) < _INT64_GUARD for row in zip(*self.generators)
        )
        if self._fast:
            import numpy as np
            self._tables = [
                self._nibble_table(step, d) for step, d in zip(self._steps, self._bounds)
            ]
            # row k: what one fold subtracts from (a, z) per e taken off a_k
            fold = [[e * (r == k) for r in range(n)] + list(self.generators[k]) for k in range(n)]
            self._fold = np.array(fold, dtype=np.int64)

    def _point(self, a: Sequence[int]) -> list[int]:
        """V a / e: the point of P with coordinates a = e V^-1 z in [0, e)."""
        e = self._exponent
        return [
            sum(g[r] * c for g, c in zip(self.generators, a)) // e for r in range(self.dim)
        ]

    def _nibble_table(self, step: Sequence[int], bound: int) -> np.ndarray:
        """table[j, v] = (a, z), the point z of P with a = v 16^j step mod e."""
        import numpy as np
        e = self._exponent
        table = []
        for j in range(-(-(bound - 1).bit_length() // 4)):
            rows = []
            for v in range(16):
                a = [(v << (4 * j)) * s % e for s in step]
                rows.append(a + self._point(a))
            table.append(rows)
        return np.array(table, dtype=np.int64)

    def _point_exact(self, y: Sequence[int]) -> tuple[int, ...]:
        """The point of P in the coset of y, in Python integers."""
        e = self._exponent
        a = [
            sum(yi * step[r] for yi, step in zip(y, self._steps)) % e for r in range(self.dim)
        ]
        return tuple(self._point(a))

    def _points_int64(self, y: np.ndarray) -> np.ndarray:
        """The points of P in the cosets of the rows of y, by the int64
        nibble tables (only when the engine guard holds)."""
        import numpy as np
        n, e = self.dim, self._exponent
        window = _INT64_MAX // e - 1  # additions per fold, >= 1 as e < 2^62
        state = np.zeros((len(y), 2 * n), dtype=np.int64)
        pending = 0
        with np.errstate(over="ignore"):
            for i, table in enumerate(self._tables):
                digits = y[:, i].astype(np.int64)
                for j in range(len(table)):
                    state += table[j][(digits >> (4 * j)) & 15]
                    pending += 1
                    if pending == window:
                        state -= (state[:, :n] // e) @ self._fold
                        pending = 0
            if pending:
                state -= (state[:, :n] // e) @ self._fold
        return state[:, n:]

    def take(self, rng: RngStream, count: int) -> list[tuple[int, ...]]:
        if count < 0:
            raise ValueError("count must be >= 0")
        draws = _BoundedDraws(rng, self._bounds)
        if self._fast:
            return list(zip(*self._points_int64(draws.rows(count)).T.tolist()))
        return [self._point_exact(draws.row()) for _ in range(count)]


def random_parallelepiped(n: int, c: int, rng: RngStream) -> Parallelepiped:
    """n generator vectors with coordinates uniform on the integers of
    [-C, C], one row of n draws below 2C + 1 each; degenerate draws are
    resampled (and counted), 64 degenerate draws in a row signal a
    generator fault and raise."""
    if c < 1:
        raise ValueError("C must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    draws = _BoundedDraws(rng, [2 * c + 1] * n)
    resamples = 0
    while True:
        generators = [[x - c for x in draws.row()] for _ in range(n)]
        try:
            return Parallelepiped(generators, resamples=resamples)
        except ValueError:
            resamples += 1
            if resamples >= 64:
                raise SamplerError("64 consecutive degenerate parallelepipeds: generator fault")


# ---------------------------------------------------------------------------
# window sampling
# ---------------------------------------------------------------------------


class WindowSampler:
    """Uniform lattice points of [0, B)^n, as basis coordinate tuples, by
    rejection from the box of the window's cell in coordinates.

    Each candidate is one row of draws from ``_core``, one per coordinate,
    accepted by the cell's own exact test.  The k-th accepted candidate is
    sample k, and after ``take`` the cursor sits right past the candidate
    that produced the last returned sample, so a stream does not depend on
    how its takes are chunked.  This big-integer loop is the one
    engine (the module docstring says why there is no vectorized one).
    More than ``_MAX_REJECTS`` rejected candidates in a row raise
    `SamplerError`.
    """

    def __init__(self, lattice: LatticeBasis, bound: Union[int, Fraction], rng: RngStream):
        self.cell = window_cell(lattice, bound)
        self.candidates = 0
        self.accepted = 0
        self._since_accept = 0
        self._core = _BoundedDraws(rng, [hi - lo + 1 for lo, hi in self.cell.box])

    @property
    def acceptance_estimate(self) -> float:
        if self.candidates == 0:
            return 1.0
        return self.accepted / self.candidates

    def take(self, count: int) -> list[tuple[int, ...]]:
        if count < 0:
            raise ValueError("count must be >= 0")
        box = self.cell.box
        out: list[tuple[int, ...]] = []
        while len(out) < count:
            z = [lo + x for (lo, _), x in zip(box, self._core.row())]
            self.candidates += 1
            if self.cell.contains(z):
                out.append(tuple(z))
                self.accepted += 1
                self._since_accept = 0
                continue
            self._since_accept += 1
            if self._since_accept > _MAX_REJECTS:
                raise SamplerError(
                    f"exceeded {_MAX_REJECTS} rejects for one sample "
                    f"(acceptance so far {self.acceptance_estimate:.3g})"
                )
        return out
