"""Finite group backends with a uniform integer-element interface.

Elements of a group of order m are the integers 0..m-1 and have no other
name.  Every backend fixes the meaning of an index (for symmetric groups:
1-based position in the lexicographic enumeration minus one) and builds the
m x m multiplication table and the inverse table once, at construction, in
its `_build_tables`.  Products are lookups into those tables: `mul`/`inv`
one at a time, `products`/`inverses` and the row and column forms on arrays,
the only products other modules take.  Multiplication follows the convention
that the RIGHT factor acts first, i.e. for permutations mul(g, h) is the
composite "apply h, then g".

S_r keeps its elements in one form, `perms`, an r! x r array of 1-based
images; the table builder, `image` and the parities all read it.
S_r and SL(2, q) list their elements as digit rows in lex order and share one
builder, `_lex_tables`: a key -> handle array, the first block of rows and
the rows of a few generators computed from digits, every other row one
gather of a generator's row by a known row (row_{g y} = row_g[row_y]), and
two rows with one key or a product that is no element a VerificationError.
A_r and the perfect core restrict a parent's table (`_restricted`) and are
validated as Cayley tables; Light's test, like the other checks of a table,
runs a block of rows at a time.

Subgroups are closed one way only, by `_greedy_generators`: after each new
generator g, the least candidate not yet reached, it grows the reached set in
rounds, each multiplying the elements the last round reached by the
generators and by the powers g, g^2, g^4, ..., one more power each round, so
a cyclic group of order d is closed in ceil(log2 d) + 1 rounds.  A round
gathers only |frontier| x |steps| products.  `generators()`, the derived
series and Light's associativity test all use it, so no step of them builds
an array of |H|^2 products.
"""
from __future__ import annotations

import itertools
import math
import re

import numpy as np

from .errors import ResourceLimitError, UsageError, VerificationError

__all__ = [
    "MAX_TABLE_ENTRIES",
    "FiniteGroup",
    "SymmetricGroup",
    "SL2",
    "AbelianProduct",
    "CayleyTableGroup",
    "alternating_group",
    "lex_rank",
    "lex_unrank",
    "derived_series",
    "perfect_core_group",
    "parse_group_spec",
    "load_cayley_table",
]

# Largest multiplication table (order squared) a backend will build, and the
# largest order whose table fits.
MAX_TABLE_ENTRIES = 10_000_000
MAX_ORDER = math.isqrt(MAX_TABLE_ENTRIES)

# Bytes a Cayley table file may spend on each entry, whitespace included: its
# order must end within the first TABLE_BYTES_PER_ENTRY bytes, and a file of
# order m holds at most TABLE_BYTES_PER_ENTRY * (m^2 + 1) bytes in all.
TABLE_BYTES_PER_ENTRY = 16

# Bytes of a table file parsed at a time: only one chunk's tokens are ever Python objects.
_TABLE_CHUNK_BYTES = 1 << 16
_SPACE = re.compile(rb"\s")

# (row, element) cells of a multiplication table that `_lex_tables` fills, or
# `CayleyTableGroup` checks, at once; bounds their working memory.
_TABLE_BLOCK_CELLS = 1 << 16


def _over_cap(name: str) -> ResourceLimitError:
    return ResourceLimitError(
        f"{name} has order over {MAX_ORDER}, so its table is over the cap "
        f"MAX_TABLE_ENTRIES = {MAX_TABLE_ENTRIES}")


def _bounded_order(name: str, factors) -> int:
    """The product of `factors`, refused as soon as a partial product is over MAX_ORDER.

    Stopping early keeps the cost independent of the parameters' size
    (S1000000 stops at the seventh factor of its factorial)."""
    order = 1
    for k in factors:
        order *= k
        if order > MAX_ORDER:
            raise _over_cap(name)
    return order


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------

class FiniteGroup:
    """Base class: a finite group on element handles 0..order-1, held as tables."""

    name: str = "?"
    order: int = 0
    identity: int = 0
    _mul_table: np.ndarray
    _inv_table: np.ndarray

    def mul(self, a: int, b: int) -> int:
        return self._mul_table.item(a, b)

    def inv(self, a: int) -> int:
        return self._inv_table.item(a)

    # the array forms read the tables at each call, as a patched instance expects
    def products(self, x, y) -> np.ndarray:
        """x[k] y[k] for every k, over broadcast arrays of handles: one flat gather."""
        return self._mul_table.ravel().take(x * self.order + y)

    def inverses(self, x) -> np.ndarray:
        """x[k]^-1 for every k."""
        return self._inv_table.take(x)

    def row_products(self, x) -> np.ndarray:
        """x[k] g for every element g, at [k, g]: whole table rows."""
        return self._mul_table[x]

    def column_products(self, y) -> np.ndarray:
        """g y[k] for every element g, at [k, g]: whole table columns, as a
        transposed view of their gather."""
        cols = self._mul_table[:, y]
        return cols.transpose(*range(1, cols.ndim), 0)

    def elements(self) -> range:
        return range(self.order)

    def check_element(self, a: int) -> int:
        if not (isinstance(a, (int, np.integer)) and 0 <= a < self.order):
            raise UsageError(f"element index {a!r} out of range for {self.name} (order {self.order})")
        return int(a)

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(a), -k)
        acc = self.identity
        for _ in range(k):
            acc = self.mul(acc, a)
        return acc

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self._mul_table, self._mul_table.T))

    def generators(self) -> list[int]:
        """A generating set of at most log2(order) elements: each one the least
        element outside the subgroup generated by the earlier ones."""
        return _closure(self, np.ones(self.order, dtype=bool))[0]

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (mul_table, inv_table) as read-only numpy arrays."""
        return self._mul_table, self._inv_table

    def _set_tables(self, mul_table: np.ndarray, inv_table: np.ndarray) -> None:
        mul_table.setflags(write=False)
        inv_table.setflags(write=False)
        self._mul_table, self._inv_table = mul_table, inv_table

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name} order={self.order}>"


def _row_blocks(arr: np.ndarray):
    """(first row, rows) of `arr` in blocks of _TABLE_BLOCK_CELLS // len(arr)
    rows (one at least), so a block of an m x m table has at most that many cells."""
    step = max(1, _TABLE_BLOCK_CELLS // len(arr))
    for lo in range(0, len(arr), step):
        yield lo, arr[lo:lo + step]


def _lex_tables(digits: np.ndarray, radix: int, row_product, inverse_digits: np.ndarray):
    """(mul_table, inv_table) of the group on the rows of `digits` (m x k, digits
    below `radix`; handle a is row a).  One array maps each row's base-`radix` key
    to its handle.  row_product(rows) yields the k digit arrays (len(rows) x m)
    of the products in turn, digit j of a*b at [j][a's place in rows, b].

    Only the first _TABLE_BLOCK_CELLS // m rows (one at least; all of them when
    m <= 256) and the rows of some generators are computed from digits.  A generator is the
    least element whose row is not yet known; every other row is found by
    walking out of the known rows along the generators: x = g y has the row
    row_g.take(row_y), as the concrete multiplication is associative.  A walk
    stops when no generator reaches an unknown row, and the next generator is
    drawn.  Every computed row is checked to hold elements only, so every
    generator maps the enumerated set into itself, and every element is a
    product of generators and computed rows: the set is closed.  Two rows with
    one key, or a product or inverse that is no row, is an error."""
    m, k = digits.shape
    handle = np.full(radix ** k, -1, dtype=np.int32)
    key_type = np.int32 if radix ** k <= 1 << 31 else np.int64     # keys are below radix**k

    def keys(columns):
        columns = iter(columns)
        key = next(columns).astype(key_type)
        for d in columns:           # Horner, most significant digit first
            key *= radix
            key += d
        return key

    def handles(columns):
        found = handle[keys(columns)]
        if found.min() < 0:
            raise VerificationError("a product or inverse of enumerated elements is no element")
        return found

    handle[keys(digits.T)] = np.arange(m, dtype=np.int32)
    if np.count_nonzero(handle >= 0) != m:
        raise VerificationError("two enumerated elements have the same key")
    inv = handles(inverse_digits.T)
    table = np.empty((m, m), dtype=np.int32)
    step = max(1, _TABLE_BLOCK_CELLS // m)
    table[:step] = handles(row_product(digits[:step]))
    known = np.zeros(m, dtype=bool)
    known[:step] = True
    gens: list[int] = []
    # Reused for every block: fresh block-sized temporaries would each be
    # page-faulted in anew.  Every index is a handle, so "clip" clips
    # nothing; the default "raise" would copy `out` once more.
    rows_y = np.empty((min(step, m), m), dtype=np.int32)
    rows_x = np.empty_like(rows_y)
    while not known.all():
        g = int(np.argmax(~known))
        table[g] = handles(row_product(digits[g:g + 1]))
        known[g] = True
        gens.append(g)
        frontier = np.flatnonzero(known)
        while frontier.size:
            reached = []
            for h in gens:
                x = table[h].take(frontier)
                fresh = ~known[x]
                x, y = x[fresh], frontier[fresh]
                known[x] = True
                for lo in range(0, x.size, step):      # a block of rows at a time
                    n = min(step, x.size - lo)
                    np.take(table, y[lo:lo + n], axis=0, out=rows_y[:n], mode="clip")
                    np.take(table[h], rows_y[:n], out=rows_x[:n], mode="clip")
                    table[x[lo:lo + n]] = rows_x[:n]
                reached.append(x)
            frontier = np.concatenate(reached)
    return table, inv


# ---------------------------------------------------------------------------
# permutations: lexicographic ranking
# ---------------------------------------------------------------------------

def lex_rank(images: tuple[int, ...]) -> int:
    """1-based rank of a permutation (given as 1-based image tuple) in lex order."""
    r = len(images)
    if sorted(images) != list(range(1, r + 1)):
        raise UsageError(f"not a permutation of 1..{r}: {images!r}")
    rank = 0
    for k in range(r):
        smaller = sum(1 for j in range(k + 1, r) if images[j] < images[k])
        rank = rank * (r - k) + smaller
    return rank + 1


def lex_unrank(rank: int, r: int) -> tuple[int, ...]:
    """Inverse of lex_rank: the permutation of 1..r with the given 1-based rank."""
    if not 1 <= rank <= math.factorial(r):
        raise UsageError(f"rank {rank} out of range for degree {r}")
    idx = rank - 1
    digits = []
    for k in range(r, 0, -1):
        f = math.factorial(k - 1)
        digits.append(idx // f)
        idx %= f
    pool = list(range(1, r + 1))
    return tuple(pool.pop(d) for d in digits)


class SymmetricGroup(FiniteGroup):
    """S_r on handles 0..r!-1 in lexicographic order of image tuples.

    `perms` is the one form of the elements: row a holds the 1-based images
    of handle a, and `parities` each element's parity (0 even, 1 odd), the
    count of its inversions mod 2."""

    def __init__(self, r: int):
        if r < 1:
            raise UsageError("symmetric group degree must be >= 1")
        self.r = r
        self.name = f"S{r}"
        self.order = _bounded_order(self.name, range(1, r + 1))
        self.perms = P = np.array(list(itertools.permutations(range(1, r + 1))), dtype=np.int32)
        i, j = np.triu_indices(r, 1)                        # the position pairs i < j
        self.parities = np.count_nonzero(P[:, i] > P[:, j], axis=1) % 2
        self.identity = 0
        self._set_tables(*self._build_tables())

    def image(self, a: int) -> tuple[int, ...]:
        return tuple(self.perms[self.check_element(a)].tolist())

    def index_of(self, images: tuple[int, ...]) -> int:
        images = tuple(images)
        if len(images) != self.r:
            raise UsageError(f"not a permutation of 1..{self.r}: {images!r}")
        return lex_rank(images) - 1

    def parity(self, a: int) -> int:
        """0 for even permutations, 1 for odd."""
        return int(self.parities[self.check_element(a)])

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        # 0-based image rows; for x = P[a], x[P[b]] is "apply b, then a"
        P = self.perms - 1
        return _lex_tables(P, self.r, lambda X: (X[:, col] for col in P.T), np.argsort(P, axis=1))


# ---------------------------------------------------------------------------
# SL(2, q)
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n ** 0.5) + 1))


# modulus polynomial x^k + c_{k-1} x^{k-1} + ... + c_0, stored as (c_0, ..., c_{k-1})
_IRREDUCIBLE = {4: (2, (1, 1)), 8: (2, (1, 1, 0)), 9: (3, (1, 0))}


def _field_params(q: int) -> tuple[int, int, tuple[int, ...]]:
    """(p, k, modulus) with GF(q) = GF(p)[x] / (modulus) and q = p^k."""
    if _is_prime(q):
        return q, 1, ()
    if q in _IRREDUCIBLE:
        p, modulus = _IRREDUCIBLE[q]
        return p, len(modulus), modulus
    raise UsageError(f"SL2({q}) not supported: q must be prime or one of 4, 8, 9")


def _field_tables(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(add, mul, neg) tables of GF(q): element i is the polynomial whose
    coefficients are the base-p digits of i, constant term least significant."""
    p, k, modulus = _field_params(q)
    places = p ** np.arange(k, dtype=np.int32)
    d = np.arange(q, dtype=np.int32)[:, None] // places % p     # d[i, j]: coefficient of x^j in i
    prod = np.zeros((q, q, 2 * k - 1), dtype=np.int32)
    for i in range(k):
        for j in range(k):
            prod[:, :, i + j] += np.multiply.outer(d[:, i], d[:, j])
    # reduce with x^k = -(c_{k-1} x^{k-1} + ... + c_0), highest degree first
    for deg in range(2 * k - 2, k - 1, -1):
        prod[:, :, deg - k:deg] -= prod[:, :, deg, None] * np.array(modulus, dtype=np.int32)
    return (d[:, None] + d[None, :]) % p @ places, prod[:, :, :k] % p @ places, -d % p @ places


class SL2(FiniteGroup):
    """SL(2, F_q): 2x2 matrices of determinant 1, in lex order of (a, b, c, d)."""

    def __init__(self, q: int):
        self.q = q
        self.name = f"SL2({q})"
        if q <= MAX_ORDER:               # support first while its trial division is cheap;
            _field_params(q)             # a larger q is over the cap, supported or not
        self.order = _bounded_order(self.name, (q, q - 1, q + 1))
        add, mul, neg = self._field = _field_tables(q)
        a, b, c, d = x = np.indices((q,) * 4, dtype=np.int32).reshape(4, -1)
        self.mats = x.T[add[mul[a, d], neg[mul[b, c]]] == 1]
        if len(self.mats) != self.order:
            raise VerificationError(f"SL2({q}) enumeration produced {len(self.mats)} matrices")
        self.identity = int(np.flatnonzero((self.mats == (1, 0, 0, 1)).all(axis=1))[0])
        self._set_tables(*self._build_tables())

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        add, mul, neg = self._field
        q, plus = self.q, add.ravel()                                   # plus[x * q + y] = x + y
        a, b, c, d = self.mats.T
        # per matrix, mx[s] = s * x; ma and mb are times q, as row indices of `plus`
        ma, mb, mc, md = mul[:, a] * q, mul[:, b] * q, mul[:, c], mul[:, d]

        def row_product(rows):
            a1, b1, c1, d1 = rows.T
            yield plus.take(ma[a1] + mc[b1])
            yield plus.take(mb[a1] + md[b1])
            yield plus.take(ma[c1] + mc[d1])
            yield plus.take(mb[c1] + md[d1])
        return _lex_tables(self.mats, self.q, row_product, np.stack([d, neg[b], neg[c], a], axis=1))


# ---------------------------------------------------------------------------
# abelian products and explicit Cayley tables
# ---------------------------------------------------------------------------

class AbelianProduct(FiniteGroup):
    """Z/k1 x ... x Z/kt with mixed-radix element handles (first factor most significant)."""

    def __init__(self, moduli: tuple[int, ...]):
        if not moduli or any(k < 1 for k in moduli):
            raise UsageError(f"bad cyclic moduli {moduli!r}")
        self.moduli = tuple(moduli)
        self.name = "x".join(f"Z{k}" for k in moduli)
        self.order = _bounded_order(self.name, moduli)
        self.identity = 0
        self._set_tables(*self._build_tables())

    def digits(self, a: int) -> tuple[int, ...]:
        out = []
        for k in reversed(self.moduli):
            out.append(a % k)
            a //= k
        return tuple(reversed(out))

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        # digit-wise sums, re-encoded in the same mixed radix; a loop, as numpy's
        # multi-index calls take at most 64 factors (Z1 factors add nothing)
        x = np.arange(self.order, dtype=np.int32)
        table, inv, place = np.zeros((self.order, self.order), dtype=np.int32), np.zeros_like(x), 1
        for k in (k for k in reversed(self.moduli) if k > 1):
            d = x // place % k
            table += (d[:, None] + d[None, :]) % k * place
            inv += -d % k * place
            place *= k
        return table, inv


def _greedy_generators(arr: np.ndarray, identity: int, candidates: np.ndarray, reached: np.ndarray):
    """Yield generators, drawn from the boolean mask `candidates`, of the
    subgroup they generate in a Latin square with a two-sided identity.

    Each generator is the least candidate not yet reached from the identity by
    right multiplication with the earlier ones; in a group each one at least
    doubles the reached set, so needing more than log2(m) means no group.  The
    next generator is chosen only after the caller has seen this one.
    `reached`, an all-False mask the caller passes in, is left as the
    subgroup.

    After each generator g the reached set grows in rounds.  A round
    multiplies the elements the last round reached (the first round: all
    reached ones) on the right by every generator and by the powers g^2, g^4,
    ..., one more each round, the identity and repeats left out: one gather of
    |frontier| x |steps| cells.  The walk ends at a round that reaches nothing
    new, so every element reached is multiplied by every generator; as the
    powers lie in the subgroup, a group's walk ends at the subgroup whatever
    the steps, and the generators are those of a walk along the generators
    alone.  A cyclic group of order d takes ceil(log2 d) + 1 rounds, not d.

    In a table not yet known to be associative each "power" is only the
    square of the one before, taken in the table, so each element reached is
    a product of generators under some bracketing.  That is all Light's test
    needs: the g with (xg)y = x(gy) for all x, y are closed under products,
    so once they include the generators they include every element reached.
    """
    m = len(arr)
    reached[identity] = True
    gens: list[int] = []
    while (left := candidates & ~reached).any():
        if 2 ** (len(gens) + 1) > m:
            raise UsageError(f"table is not associative: it needs over log2({m}) generators")
        g = int(left.argmax())
        yield g
        gens.append(g)
        steps, power = gens[:], g
        frontier = reached.nonzero()[0]
        while frontier.size:
            fresh = np.zeros(m, dtype=bool)
            fresh[arr[frontier[:, None], steps]] = True
            fresh &= ~reached
            reached |= fresh
            frontier = fresh.nonzero()[0]
            power = arr.item(power, power)
            if power != identity and power not in steps:
                steps.append(power)


def _check_associativity(arr: np.ndarray, identity: int) -> None:
    """Light's exact test of a Latin square with a two-sided identity: it is
    associative iff (xg)y = x(gy) for all x, y and every g of a generating set
    (the greedy one of `_greedy_generators`).  Compares a block of rows x
    (`_row_blocks`) at a time, so no m x m array is made; the first bad
    (x, g, y) in row-major order is named."""
    m = len(arr)
    for g in _greedy_generators(arr, identity, np.ones(m, dtype=bool), np.zeros(m, dtype=bool)):
        right = arr[g]
        for lo, rows in _row_blocks(arr):
            bad = np.flatnonzero(arr[rows[:, g]] != rows[:, right])
            if bad.size:
                x, y = divmod(int(bad[0]), m)
                raise UsageError(f"table is not associative at ({lo + x}, {g}, {y})")


def _latin_identity(arr: np.ndarray) -> int:
    """The two-sided identity of a table with entries in 0..m-1, after checking
    it is a Latin square; a bad row or column names the least such index.  Runs
    over blocks of rows and of columns, so no m x m array is made."""
    full = np.arange(len(arr), dtype=np.int32)
    left = np.zeros(len(arr), dtype=bool)      # the e with e x = x for every x
    for (lo, rows), (_, cols) in zip(_row_blocks(arr), _row_blocks(arr.T)):
        bad = ~((np.sort(rows, axis=1) == full).all(axis=1) & (np.sort(cols, axis=1) == full).all(axis=1))
        if bad.any():
            raise UsageError(f"Cayley table row/column {lo + int(np.argmax(bad))} is not a permutation")
        left[lo:lo + len(rows)] = (rows == full).all(axis=1)
    # two equal rows would repeat an entry in every column, so there is at most one
    ident = np.flatnonzero(left)
    if len(ident) != 1 or not np.array_equal(arr[:, ident[0]], full):
        raise UsageError("Cayley table has no two-sided identity")
    return int(ident[0])


class CayleyTableGroup(FiniteGroup):
    """Group given by an explicit multiplication table (validated on construction)."""

    def __init__(self, table, name: str = "table"):
        m = len(table)
        _bounded_order(name, (m,))
        try:
            arr = np.asarray(table)
            if arr.dtype.kind not in "biuf":    # not numbers: int32 or a clean error
                arr = arr.astype(np.int32)
        except (ValueError, TypeError, OverflowError) as exc:
            raise UsageError(f"malformed Cayley table: {exc}") from None
        if arr.shape != (m, m) or m == 0:
            raise UsageError(f"Cayley table must be square and nonempty, got shape {arr.shape}")
        # range-checked before the int32 cast, which would wrap wider integers
        if arr.min() < 0 or arr.max() >= m:
            raise UsageError("Cayley table entries must be element indices 0..m-1")
        arr = arr.astype(np.int32)
        self.identity = _latin_identity(arr)
        _check_associativity(arr, self.identity)
        self.name = name
        self.order = m
        self._set_tables(*self._build_tables(arr))

    def _build_tables(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The validated table itself, with the inverses read off it a block of
        rows at a time."""
        m, e = self.order, self.identity
        inv = np.empty(m, dtype=np.int32)
        for lo, block in _row_blocks(arr):
            right = np.argmax(block == e, axis=1)       # the one e in each row of a Latin square
            bad = arr[right, np.arange(lo, lo + len(block))] != e
            if bad.any():
                raise UsageError(f"element {lo + int(np.argmax(bad))} has no two-sided inverse")
            inv[lo:lo + len(block)] = right
        return arr, inv


def load_cayley_table(path: str) -> CayleyTableGroup:
    """Read a table file: first line the order m, then m rows of m 0-based
    indices; an endless or over-long file is refused unread (TABLE_BYTES_PER_ENTRY)."""
    name = f"table:{path}"
    try:
        with open(path, "rb") as fh:
            head = fh.read(TABLE_BYTES_PER_ENTRY)
            tokens = head.split()
            if len(head) == TABLE_BYTES_PER_ENTRY and not head[-1:].isspace():
                tokens = tokens[:-1]    # the last token may run on past the head
            if not (tokens and tokens[0].isdigit()):
                raise UsageError(f"Cayley table file {path} does not give its order "
                                 f"in its first {TABLE_BYTES_PER_ENTRY} bytes")
            m = _bounded_order(name, (int(tokens[0]),))     # before any entry is read
            limit = TABLE_BYTES_PER_ENTRY * (m * m + 1)
            data = head + fh.read(limit + 1 - len(head))
    except OSError as exc:
        raise UsageError(f"cannot read Cayley table file {path}: {exc}") from None
    if len(data) > limit:
        raise UsageError(f"Cayley table file {path} is longer than {limit} bytes, "
                         f"{TABLE_BYTES_PER_ENTRY} per entry for order {m}")
    values = np.empty(m * m + 1, dtype=np.int32)         # the order, then the entries
    count = start = 0
    while start < len(data):
        cut = _SPACE.search(data, start + _TABLE_CHUNK_BYTES)
        end = cut.start() if cut else len(data)
        chunk = data[start:end].split()
        fits = chunk[:max(values.size - count, 0)]      # tokens past the declared size are only counted
        try:
            values[count:count + len(fits)] = np.fromiter(map(int, fits), np.int32, len(fits))
        except ValueError as exc:
            raise UsageError(f"non-integer token in Cayley table file {path}: {exc}") from None
        except OverflowError as exc:
            raise UsageError(f"malformed Cayley table: {exc}") from None
        count += len(chunk)
        start = end
    if count != m * m + 1:
        raise UsageError(f"Cayley table file {path} declares order {m} but has {count - 1} entries")
    return CayleyTableGroup(values[1:].reshape(m, m), name=name)


def _restricted(group: FiniteGroup, elems: np.ndarray, name: str) -> CayleyTableGroup:
    """The subgroup on the sorted handles `elems`, reindexed 0..k-1 in that
    order, as a validated table group."""
    mul_t, _ = group.tables()
    handle = np.full(group.order, -1, dtype=np.int32)     # a product outside `elems` fails validation
    handle[elems] = np.arange(len(elems), dtype=np.int32)
    return CayleyTableGroup(handle[mul_t[np.ix_(elems, elems)]], name=name)


def alternating_group(r: int) -> CayleyTableGroup:
    """A_r as an explicit-table group on the even permutations, in S_r's order."""
    S = SymmetricGroup(r)
    return _restricted(S, np.flatnonzero(S.parities == 0), f"A{r}")


# ---------------------------------------------------------------------------
# the derived series
# ---------------------------------------------------------------------------

def _closure(group: FiniteGroup, candidates: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The greedy generators drawn from the boolean mask `candidates` and the
    subgroup they generate, as a mask."""
    reached = np.zeros(group.order, dtype=bool)
    gens = list(_greedy_generators(group.tables()[0], group.identity, candidates, reached))
    return gens, reached


def derived_series(group: FiniteGroup) -> tuple[frozenset[int], ...]:
    """Successive commutator subgroups G, [G, G], ..., ending at the perfect core;
    the group is solvable when the last term has one element.

    [H, H] is the closure N of the |H| log|H| commutators
    [x, s] = x^-1 s^-1 x s, x in H and s a greedy generator of H.  N is normal
    in H, since [xh, s] = [x, s]^h [h, s] (a^h = h^-1 a h) puts every [x, s]^h
    in N, and in H / N every s is central, so H / N is abelian and N holds all
    of [H, H]."""
    terms, H = [], np.ones(group.order, dtype=bool)
    while not terms or H.sum() < len(terms[-1]):
        x = np.flatnonzero(H)[:, None]
        terms.append(frozenset(x.ravel().tolist()))
        s = np.array(_closure(group, H)[0], dtype=np.intp)      # H's greedy generators
        commutators = np.zeros(group.order, dtype=bool)
        commutators[group.products(group.products(group.inverses(x), group.inverses(s)), group.products(x, s))] = True
        H = _closure(group, commutators)[1]
    return tuple(terms)


def perfect_core_group(group: FiniteGroup) -> tuple[CayleyTableGroup, np.ndarray]:
    """The perfect core as a standalone group (elements reindexed 0..k-1), and
    its elements' handles in `group`, increasing."""
    core = np.array(sorted(derived_series(group)[-1]))
    return _restricted(group, core, f"core({group.name})"), core


# ---------------------------------------------------------------------------
# group specification strings
# ---------------------------------------------------------------------------

_SYM_RE = re.compile(r"^S(\d+)$", re.IGNORECASE)
_SL2_RE = re.compile(r"^SL2\((\d+)\)$", re.IGNORECASE)
_AB_RE = re.compile(r"^Z\d+(?:xZ\d+)*$", re.IGNORECASE)

SPEC_GRAMMAR = "S<r> | SL2(<q>) | Z<k>[xZ<k>...] | table:<path>"


def _spec_number(digits: str, spec: str) -> int:
    """A numeric field of a spec; one with more digits than MAX_ORDER is refused
    unconverted, since every group's order is at least each of its parameters."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(MAX_ORDER)):
        raise _over_cap(spec if len(spec) <= 40 else spec[:32] + "...")
    return int(digits)


def parse_group_spec(spec: str) -> FiniteGroup:
    """Build a group from a specification string like S4, SL2(3), Z2xZ4 or table:<path>."""
    s = spec.strip()
    if s.startswith("table:"):
        return load_cayley_table(s[len("table:"):])
    m = _SYM_RE.match(s)
    if m:
        return SymmetricGroup(_spec_number(m.group(1), s))
    m = _SL2_RE.match(s)
    if m:
        return SL2(_spec_number(m.group(1), s))
    if _AB_RE.match(s):
        return AbelianProduct(tuple(_spec_number(part[1:], s) for part in s.upper().split("X")))
    raise UsageError(f"cannot parse group spec {spec!r}; expected {SPEC_GRAMMAR}")
