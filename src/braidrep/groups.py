"""Finite group backends with a uniform integer-element interface.

Elements of a group of order m are the integers 0..m-1.  Every backend fixes
the meaning of an index (for symmetric groups: 1-based position in the
lexicographic enumeration minus one) and builds the m x m multiplication
table and the inverse table once, at construction, in its `_build_tables`;
mul/inv and everything else are lookups into those tables.  Multiplication
follows the convention that the RIGHT factor acts first, i.e. for
permutations mul(g, h) is the composite "apply h, then g".

S_r and SL(2, q) list their elements as digit rows in lex order and share one
builder, `_lex_tables`: a key -> handle array, the table filled row by row, and
a product that is no element a VerificationError.  A_r and the perfect core
restrict a parent's table (`_restricted`) and are validated as Cayley tables.
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass

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
    "element_order",
    "involution_count",
    "DerivedSeries",
    "subgroup_closure",
    "commutator_subgroup",
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

    def elements(self) -> range:
        return range(self.order)

    def label(self, a: int) -> str:
        """Human-readable name for one element (backends may override)."""
        return str(self.check_element(a))

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
        return list(_greedy_generators(self._mul_table, self.identity))

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (mul_table, inv_table) as read-only numpy arrays."""
        return self._mul_table, self._inv_table

    def _set_tables(self, mul_table: np.ndarray, inv_table: np.ndarray) -> None:
        mul_table.setflags(write=False)
        inv_table.setflags(write=False)
        self._mul_table, self._inv_table = mul_table, inv_table

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name} order={self.order}>"


def _lex_tables(digits: np.ndarray, radix: int, row_product, inverse_digits: np.ndarray):
    """(mul_table, inv_table) of the group on the rows of `digits` (m x k, digits
    below `radix`; handle a is row a).  One array maps each row's base-`radix` key
    to its handle; row a of the table is the handles of row_product(digits[a]),
    the rows of a*b for every b.  A product or inverse that is no row is an error."""
    m, k = digits.shape
    weights = radix ** np.arange(k - 1, -1, -1, dtype=np.int64)
    handle = np.full(radix ** k, -1, dtype=np.int32)
    handle[digits @ weights] = np.arange(m, dtype=np.int32)
    table = np.empty((m, m), dtype=np.int32)
    for a in range(m):
        table[a] = handle[row_product(digits[a]) @ weights]
    inv = handle[inverse_digits @ weights]
    if table.min() < 0 or inv.min() < 0:
        raise VerificationError("a product or inverse of enumerated elements is no element")
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


def _cycle_notation(images: tuple[int, ...]) -> str:
    r = len(images)
    seen = [False] * r
    parts = []
    for start in range(1, r + 1):
        if seen[start - 1]:
            continue
        cyc = [start]
        seen[start - 1] = True
        nxt = images[start - 1]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt - 1] = True
            nxt = images[nxt - 1]
        if len(cyc) > 1:
            parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "()"


class SymmetricGroup(FiniteGroup):
    """S_r on handles 0..r!-1 in lexicographic order of image tuples."""

    def __init__(self, r: int):
        if r < 1:
            raise UsageError("symmetric group degree must be >= 1")
        self.r = r
        self.name = f"S{r}"
        self.order = _bounded_order(self.name, range(1, r + 1))
        self.perms: list[tuple[int, ...]] = list(itertools.permutations(range(1, r + 1)))
        self.identity = 0
        self._index = {p: i for i, p in enumerate(self.perms)}
        self._set_tables(*self._build_tables())

    def image(self, a: int) -> tuple[int, ...]:
        return self.perms[self.check_element(a)]

    def index_of(self, images: tuple[int, ...]) -> int:
        try:
            return self._index[tuple(images)]
        except KeyError:
            raise UsageError(f"not a permutation of 1..{self.r}: {images!r}") from None

    def parity(self, a: int) -> int:
        """0 for even permutations, 1 for odd."""
        images = self.perms[self.check_element(a)]
        seen = [False] * self.r
        par = 0
        for start in range(self.r):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = images[j] - 1
                length += 1
            par ^= (length - 1) & 1
        return par

    def label(self, a: int) -> str:
        return _cycle_notation(self.perms[self.check_element(a)])

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        # 0-based image rows; for x = P[a], x[P][b] is "apply b, then a"
        P = np.array(self.perms, dtype=np.int64) - 1
        return _lex_tables(P, self.r, lambda x: x[P], np.argsort(P, axis=1))


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

    def label(self, x: int) -> str:
        a, b, c, d = self.mats[self.check_element(x)].tolist()
        return f"[[{a},{b}],[{c},{d}]]"

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        add, mul, neg = self._field
        q, plus = self.q, add.ravel()                                   # plus[x * q + y] = x + y
        a, b, c, d = self.mats.T
        # per matrix, mx[s] = s * x; ma and mb are times q, as row indices of `plus`
        ma, mb, mc, md = mul[:, a] * q, mul[:, b] * q, mul[:, c], mul[:, d]

        def row_product(row):
            a1, b1, c1, d1 = row
            return np.stack([plus.take(ma[a1] + mc[b1]), plus.take(mb[a1] + md[b1]),
                             plus.take(ma[c1] + mc[d1]), plus.take(mb[c1] + md[d1])], axis=1)
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

    def label(self, a: int) -> str:
        a = self.check_element(a)
        return "(" + ",".join(map(str, self.digits(a))) + ")" if len(self.moduli) > 1 else str(a)

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


def _greedy_generators(arr: np.ndarray, identity: int):
    """Yield a generating set of a Latin square with a two-sided identity.

    Each generator is the least element not yet reached from the identity by
    right multiplication with the earlier ones; in a group each one at least
    doubles the reached set, so needing more than log2(m) means no group.  The
    next generator is chosen only after the caller has seen this one."""
    m = len(arr)
    reached = np.zeros(m, dtype=bool)
    reached[identity] = True
    gens: list[int] = []
    while not reached.all():
        if 2 ** (len(gens) + 1) > m:
            raise UsageError(f"table is not associative: it needs over log2({m}) generators")
        g = int(np.argmin(reached))
        yield g
        gens.append(g)
        frontier = np.flatnonzero(reached)
        while frontier.size:
            new = np.zeros(m, dtype=bool)
            new[arr[np.ix_(frontier, gens)]] = True
            frontier = np.flatnonzero(new & ~reached)
            reached[frontier] = True


def _check_associativity(arr: np.ndarray, identity: int) -> None:
    """Light's exact test of a Latin square with a two-sided identity: it is
    associative iff (xg)y = x(gy) for all x, y and every g of a generating set
    (the greedy one of `_greedy_generators`)."""
    for g in _greedy_generators(arr, identity):
        bad = np.argwhere(arr[arr[:, g]] != arr[:, arr[g]])
        if bad.size:
            x, y = bad[0]
            raise UsageError(f"table is not associative at ({x}, {g}, {y})")


class CayleyTableGroup(FiniteGroup):
    """Group given by an explicit multiplication table (validated on construction)."""

    def __init__(self, table, name: str = "table", labels: list[str] | None = None):
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
        full = np.arange(m, dtype=np.int32)
        for a in range(m):
            if not np.array_equal(np.sort(arr[a]), full) or not np.array_equal(np.sort(arr[:, a]), full):
                raise UsageError(f"Cayley table row/column {a} is not a permutation")
        ident = [e for e in range(m) if np.array_equal(arr[e], full) and np.array_equal(arr[:, e], full)]
        if len(ident) != 1:
            raise UsageError("Cayley table has no two-sided identity")
        self.identity = ident[0]
        _check_associativity(arr, self.identity)
        self.name = name
        self.order = m
        self._set_tables(*self._build_tables(arr))
        self._labels = list(labels) if labels is not None else None
        if self._labels is not None and len(self._labels) != m:
            raise UsageError("labels length must match group order")

    def label(self, a: int) -> str:
        return super().label(a) if self._labels is None else self._labels[self.check_element(a)]

    def _build_tables(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The validated table itself, with the inverses read off it."""
        inv = np.empty(self.order, dtype=np.int32)
        for a in range(self.order):
            right = int(np.nonzero(arr[a] == self.identity)[0][0])
            if arr[right, a] != self.identity:
                raise UsageError(f"element {a} has no two-sided inverse")
            inv[a] = right
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


def _restricted(group: FiniteGroup, elems: list[int], name: str) -> CayleyTableGroup:
    """The subgroup on the sorted handles `elems`, reindexed 0..k-1 in that
    order, as a validated table group that keeps the parent's labels."""
    mul_t, _ = group.tables()
    handle = np.full(group.order, -1, dtype=np.int32)     # a product outside `elems` fails validation
    handle[elems] = np.arange(len(elems), dtype=np.int32)
    return CayleyTableGroup(handle[mul_t[np.ix_(elems, elems)]], name=name,
                            labels=[group.label(g) for g in elems])


def alternating_group(r: int) -> CayleyTableGroup:
    """A_r as an explicit-table group (element labels keep the cycle notation)."""
    S = SymmetricGroup(r)
    return _restricted(S, [g for g in S.elements() if S.parity(g) == 0], f"A{r}")


# ---------------------------------------------------------------------------
# element statistics and the derived series
# ---------------------------------------------------------------------------

def element_order(group: FiniteGroup, a: int) -> int:
    group.check_element(a)
    k, x = 1, a
    while x != group.identity:
        x = group.mul(x, a)
        k += 1
    return k


def involution_count(group: FiniteGroup) -> int:
    """Number of elements of order exactly 2."""
    e = group.identity
    return sum(1 for a in group.elements() if a != e and group.mul(a, a) == e)


def _distinct(group: FiniteGroup, handles: np.ndarray) -> np.ndarray:
    """The distinct values of `handles`, sorted, found with a mask over the group."""
    seen = np.zeros(group.order, dtype=bool)
    seen[handles] = True
    return np.flatnonzero(seen)


def subgroup_closure(group: FiniteGroup, gens) -> frozenset[int]:
    """Subgroup generated by `gens`, by iterated multiplication closure."""
    mul_t, _ = group.tables()
    current = _distinct(group, np.fromiter(list(gens) + [group.identity], dtype=np.int32))
    while True:
        products = _distinct(group, mul_t[np.ix_(current, current)])
        if products.size == current.size:
            return frozenset(current.tolist())
        current = products


def commutator_subgroup(group: FiniteGroup, elems) -> frozenset[int]:
    """Subgroup generated by all commutators of pairs drawn from `elems`."""
    mul_t, inv_t = group.tables()
    E = np.fromiter(sorted(elems), dtype=np.int32)
    comms = mul_t[mul_t[inv_t[E][:, None], inv_t[E][None, :]], mul_t[E[:, None], E[None, :]]]
    return subgroup_closure(group, _distinct(group, comms))


@dataclass
class DerivedSeries:
    """Successive commutator subgroups, ending at the perfect core."""

    terms: list[frozenset[int]]
    solvable: bool

    @property
    def core(self) -> frozenset[int]:
        return self.terms[-1]


def derived_series(group: FiniteGroup) -> DerivedSeries:
    terms = [frozenset(group.elements())]
    while True:
        nxt = commutator_subgroup(group, terms[-1])
        if nxt == terms[-1]:
            break
        terms.append(nxt)
    return DerivedSeries(terms, solvable=(len(terms[-1]) == 1))


def perfect_core_group(group: FiniteGroup, series: DerivedSeries | None = None) -> CayleyTableGroup:
    """The perfect core as a standalone group (elements reindexed 0..k-1)."""
    core = sorted((series or derived_series(group)).core)
    return _restricted(group, core, f"core({group.name})")


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
