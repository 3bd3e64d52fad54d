"""Workload inputs, expected answers and output checks.

Each workload turns a seed into a job (the only thing the measured child
receives) and the expected answers, which are computed here, once per seed
and outside the timed region, from ``tests/oracle.py`` or from how the input
was constructed.  ``check`` compares one pass's outputs with them and returns
one failure message, or None, per operation.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path

import oracle
from bck.bckfile import emit_bck, parse_bck

Rows = tuple[tuple[int, ...], ...]

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def flats_text(flats: list[list[int]]) -> str:
    return "\n".join(" ".join(map(str, flat)) for flat in flats)


def _rows(flat: list[int], n: int) -> Rows:
    return tuple(tuple(flat[x * n : (x + 1) * n]) for x in range(n))


def _triangular(m: int) -> int:
    return m * (m + 1) // 2


# --- enum6, enum6-jobs2 ------------------------------------------------------


@dataclass(frozen=True)
class Enum:
    """Enumerate every class of one order, then ``bck census`` and ``bck enum``.

    The classes, the census and the listing must match the committed
    digests, which do not depend on ``jobs``; the classes are also checked
    against the oracle.
    """

    order: int
    jobs: int

    def prepare(self, seed: int) -> tuple[dict, dict]:
        # enumeration has no free input: every seed runs the same job
        return {"kind": "enum", "order": self.order, "jobs": self.jobs}, {}

    def check(self, job: dict, expected: dict, result: dict, cache: dict) -> list:
        ref = REFERENCE[str(self.order)]
        flats, census, listing = result["results"]
        failures = [None, None, None]
        if not isinstance(flats, list) or digest(flats_text(flats)) != ref["enumerate"]:
            failures[0] = "classes differ from the reference"
        else:
            key = ("oracle", digest(flats_text(flats)), json.dumps(result["extra"]))
            if key not in cache:
                cache[key] = self._oracle_failure(flats, result["extra"])
            failures[0] = cache[key]
        for i, (name, out) in enumerate((("census", census), ("enum", listing)), 1):
            if out.get("rc") != 0 or digest(out.get("stdout", "")) != ref[name]:
                failures[i] = f"bck {name} output differs from the reference"
        if failures[0] is None:
            failures[1] = failures[1] or self._census_failure(flats, census["stdout"])
            failures[2] = failures[2] or self._listing_failure(flats, listing["stdout"])
        return failures

    def _oracle_failure(self, flats: list, extra: dict) -> str | None:
        n = self.order
        if not all(oracle.axioms_hold(_rows(f, n)) for f in flats):
            return "a class fails the oracle's axiom check"
        counts = extra["class_counts"]
        oracle_counts = [oracle.class_count(k) for k in range(1, len(counts) + 1)]
        if counts != oracle_counts:
            return f"class counts {counts} differ from the oracle's {oracle_counts}"
        if extra["order5"]:
            census5 = Counter(oracle.pair_count(_rows(f, 5)) for f in extra["order5"])
            if census5[23] != 9:
                return f"order 5 has {census5[23]} classes at 23/25, expected 9"
        return None

    def _census_failure(self, flats: list, stdout: str) -> str | None:
        n = self.order
        rebuilt = Counter(oracle.pair_count(_rows(f, n)) for f in flats)
        shown = {}
        for line in stdout.splitlines():
            raw, count = line.split(": ")
            shown[int(raw.split("/")[0])] = int(count)
        if shown != dict(rebuilt):
            return "census differs from the oracle's pair counts"
        return None

    def _listing_failure(self, flats: list, stdout: str) -> str | None:
        lines = stdout.splitlines()
        if len(lines) != len(flats):
            return f"bck enum lists {len(lines)} classes, expected {len(flats)}"
        for line, flat in zip(lines, flats):
            k = int(line.split()[1].split("/")[0])
            if k != oracle.pair_count(_rows(flat, self.order)):
                return f"listing line {line!r} disagrees with the oracle"
        return None


# --- construct ---------------------------------------------------------------


@dataclass(frozen=True)
class Construct:
    """``bck synth p/q`` for one seeded p per q, one escalating 1/q, ``bck family``.

    Synthesis at degree p/q builds an algebra of order 2q (4q when p = 1)
    through about 2q unions and top extensions, each re-validated, so the
    cost is set by q; the seed picks p, which changes the construction but
    not its size.
    """

    qs: tuple[int, ...]
    escalating_q: int
    family_n: int

    def prepare(self, seed: int) -> tuple[dict, dict]:
        rng = random.Random(seed)
        # p from the middle of the range: how many of the ~2q steps are
        # unions rather than top extensions depends on p, and moves the
        # cost of one synthesis by up to 15% across the whole range
        targets = [
            (rng.choice([p for p in range(2 * q // 5, 3 * q // 5 + 1)
                         if gcd(p, q) == 1]), q)
            for q in self.qs
        ]
        targets.append((1, self.escalating_q))
        rng.shuffle(targets)
        job = {
            "kind": "construct",
            "targets": [f"{p}/{q}" for p, q in targets],
            "family": self.family_n,
        }
        return job, {"targets": targets}

    def check(self, job: dict, expected: dict, result: dict, cache: dict) -> list:
        failures = []
        tables = result["extra"].get("tables", [])
        for i, (p, q) in enumerate(expected["targets"]):
            out = result["results"][i]
            text = tables[i] if i < len(tables) else ""
            failures.append(self._synth_failure(p, q, out, text, cache))
        failures.append(self._family_failure(result["results"][-1]))
        return failures

    def _synth_failure(self, p: int, q: int, out: dict, text: str, cache: dict):
        if out.get("rc") != 0:
            return f"bck synth {p}/{q} failed: {out}"
        n = 4 * q if p == 1 else 2 * q
        nn = n * n
        lines = out["stdout"].splitlines()
        if not lines:
            return f"synth {p}/{q}: no output"
        if (lines[0].startswith("note: ")) != (p == 1):
            return f"synth {p}/{q}: escalation note is wrong"
        if f"order: {n}" not in lines:
            return f"synth {p}/{q}: expected order {n}"
        if lines[-1] != f"{nn * p // q}/{nn} = {p}/{q}":
            return f"synth {p}/{q}: degree line {lines[-1]!r}"
        if text not in cache:
            cache[text] = self._table_failure(p, q, n, text)
        return cache[text]

    @staticmethod
    def _table_failure(p: int, q: int, n: int, text: str) -> str | None:
        table = parse_bck(text)
        if emit_bck(table) != text or parse_bck(emit_bck(table)) != table:
            return f"synth {p}/{q}: .bck round trip is not exact"
        if table.order != n or oracle.pair_count(table.rows) != n * n * p // q:
            return f"synth {p}/{q}: emitted table does not have degree {p}/{q}"
        if not oracle.axioms_hold(table.rows):
            return f"synth {p}/{q}: emitted table fails the oracle's axiom check"
        return None

    def _family_failure(self, out: dict) -> str | None:
        n = self.family_n
        nn = n * n
        lines = out.get("stdout", "").splitlines()
        if out.get("rc") != 0 or len(lines) != _triangular(n - 2):
            return f"bck family {n}: expected {_triangular(n - 2)} lines"
        for j, line in enumerate(lines, 1):
            k = 3 * n - 2 + 2 * (j - 1)
            d = Fraction(k, nn)
            if line != f"{k}/{nn} = {d.numerator}/{d.denominator}":
                return f"bck family {n}: line {j} is {line!r}"
        return None


# --- verify ------------------------------------------------------------------
#
# The corpus is built here, without bck.construct or bck.bckfile, so that the
# inputs and their expected answers do not depend on the code under test.


@dataclass(frozen=True)
class Built:
    """A table with the properties its construction guarantees."""

    rows: Rows
    commutative: bool
    pi: bool
    top: int | None


def _component(rows: Rows) -> Built:
    n = len(rows)
    r = range(n)
    top = next((t for t in r if all(rows[x][t] == 0 for x in r)), None)
    pi = all(rows[rows[x][y]][y] == rows[x][y] for x in r for y in r)
    return Built(rows, oracle.pair_count(rows) == n * n, pi, top)


def _union(a: Built, b: Built) -> Built:
    """a | b: elements of different parts are incomparable, x*y = x.

    A union of two nontrivial parts has no top; it is commutative and
    positive implicative exactly when both parts are.
    """
    na, nb = len(a.rows), len(b.rows)
    n = na + nb - 1
    rows = []
    for x in range(n):
        row = []
        for y in range(n):
            if x == 0:
                v = 0
            elif y == 0:
                v = x
            elif x < na and y < na:
                v = a.rows[x][y]
            elif x >= na and y >= na:
                local = b.rows[x - na + 1][y - na + 1]
                v = 0 if local == 0 else local + na - 1
            else:
                v = x
            row.append(v)
        rows.append(tuple(row))
    return Built(tuple(rows), a.commutative and b.commutative, a.pi and b.pi, None)


def _extend(a: Built) -> Built:
    """a + T: the new element n is the top; x^T = 0 but T^x = x, so the
    result is not commutative, and (x*y)*y = x*y still holds wherever it
    held in a."""
    n = len(a.rows)
    rows = tuple(row + (0,) for row in a.rows) + ((n,) * n + (0,),)
    return Built(rows, False, a.pi, n)


def _build(rng: random.Random, n: int, parts: list[Built]) -> Built:
    """Unions with random parts and top extensions until the order is n."""
    two = min(parts, key=lambda part: len(part.rows))  # the order-2 algebra
    algebra = rng.choice(parts)
    while len(algebra.rows) < n:
        if rng.random() < 0.25:
            algebra = _extend(algebra)
            continue
        part = rng.choice(parts)
        if len(algebra.rows) + len(part.rows) - 1 > n:
            part = two
        algebra = _union(algebra, part)
    return algebra


def first_violation(rows: Rows) -> tuple[str, tuple[int, ...]] | None:
    """The first failing axiom and its least witness, in the documented order:
    BCK3, BCK4, x*0=x, BCK5, BCK2, BCK1."""
    n = len(rows)
    r = range(n)
    for x in r:
        if rows[x][x] != 0:
            return "BCK3", (x,)
    for x in r:
        if rows[0][x] != 0:
            return "BCK4", (x,)
    for x in r:
        if rows[x][0] != x:
            return "x*0=x", (x,)
    for x, y in combinations(r, 2):
        if rows[x][y] == 0 and rows[y][x] == 0:
            return "BCK5", (x, y)
    for x, y in product(r, repeat=2):
        if rows[rows[x][rows[x][y]]][y] != 0:
            return "BCK2", (x, y)
    for x, y, z in product(r, repeat=3):
        if rows[rows[rows[x][y]][rows[x][z]]][rows[z][y]] != 0:
            return "BCK1", (x, y, z)
    return None


EARLY = ("BCK3", "BCK4", "x*0=x", "BCK5")


def _corrupt(rng: random.Random, rows: Rows, kind: str) -> tuple[Rows, tuple]:
    """Change one cell so that the first failing axiom is ``kind``
    (or BCK2/BCK1 for ``late``); returns the table and its violation."""
    n = len(rows)
    while True:
        grid = [list(row) for row in rows]
        if kind == "BCK3":
            x = rng.randrange(1, n)
            grid[x][x] = rng.randrange(1, n)
        elif kind == "BCK4":
            grid[0][rng.randrange(1, n)] = rng.randrange(1, n)
        elif kind == "x*0=x":
            x = rng.randrange(1, n)
            grid[x][0] = rng.choice([v for v in range(n) if v != x])
        elif kind == "BCK5":
            below = [(x, y) for x in range(1, n) for y in range(1, n)
                     if x != y and rows[y][x] == 0]
            if not below:  # no two nonzero elements are comparable
                kind = "late"
                continue
            x, y = rng.choice(below)
            grid[x][y] = 0
        else:
            x, y = rng.sample(range(1, n), 2)
            v = rng.randrange(n)
            if v == rows[x][y] or (v == 0 and rows[y][x] == 0):
                continue
            grid[x][y] = v
        corrupted = tuple(tuple(row) for row in grid)
        found = first_violation(corrupted)
        if found is None:
            continue  # the change happened to give another valid algebra
        if found[0] != kind and (kind in EARLY or found[0] in EARLY):
            raise AssertionError(f"corruption {kind} gave {found}")
        if oracle.axioms_hold(corrupted):
            raise AssertionError("the oracle accepts a table with a violation")
        return corrupted, found


def _emit(rows: Rows) -> str:
    return "bck 1\n%d\n%s\n" % (len(rows), "\n".join(" ".join(map(str, r)) for r in rows))


@dataclass(frozen=True)
class Verify:
    """Check a seeded corpus of untrusted .bck texts, one file per operation.

    The corpus has unions of enumerated small algebras with top extensions
    (no reference); copies of some of them with one corrupted cell; and
    relabelled copies of other such unions, each checked against its source.
    The negative pairs check a relabelled copy against a source of the
    same order and another degree, so the expected answer is "not
    isomorphic".  Orders are fixed and the seed draws the structures, so
    the work per pass, and which file sits at each latency percentile,
    hardly changes from seed to seed.
    """

    originals: tuple[int, ...]
    corrupted: tuple[int, ...]
    relabelled: tuple[int, ...]
    negatives: tuple[int, ...]

    def prepare(self, seed: int) -> tuple[dict, dict]:
        rng = random.Random(seed)
        small = [_component(rows) for k in (2, 3)
                 for rows in oracle.group_into_classes(oracle.all_valid_tables(k))]
        four = [_component(rows) for rows in
                oracle.group_into_classes(oracle.forced_valid_tables(4))]
        kinds = list(EARLY) + ["late"] * (len(self.corrupted) - len(EARLY))
        rng.shuffle(kinds)
        kinds_by_order = dict(zip(self.corrupted, kinds))
        files: list[tuple[str, str | None, dict]] = []
        for n in self.originals:
            original = _build(rng, n, small + four)
            files.append((_emit(original.rows), None, self._answer(original, None)))
            if n in kinds_by_order:
                corrupted, found = _corrupt(rng, original.rows, kinds_by_order[n])
                files.append((_emit(corrupted), None,
                              {"violation": [found[0], list(found[1])]}))
        # Sources of relabelled copies are built from parts of order <= 3:
        # with order-4 parts, find_isomorphism's backtracking can run for
        # minutes on such unions (see the README).
        for n in self.relabelled:
            source = _build(rng, n, small)
            sigma = (0,) + tuple(rng.sample(range(1, n), n - 1))
            files.append((_emit(oracle.relabeled(source.rows, sigma)),
                          _emit(source.rows), self._answer(source, sigma)))
        for n in self.negatives:
            source = _build(rng, n, small)
            other = _build(rng, n, small)
            while oracle.pair_count(other.rows) == oracle.pair_count(source.rows):
                other = _build(rng, n, small)
            sigma = (0,) + tuple(rng.sample(range(1, n), n - 1))
            answer = self._answer(other, sigma)
            answer["iso"] = None  # different degree, so no isomorphism exists
            files.append((_emit(oracle.relabeled(other.rows, sigma)),
                          _emit(source.rows), answer))
        rng.shuffle(files)
        job = {"kind": "verify",
               "files": [{"text": t, "source": s} for t, s, _ in files]}
        return job, {"answers": [a for _, _, a in files]}

    @staticmethod
    def _answer(built: Built, sigma: tuple[int, ...] | None) -> dict:
        """Expected report on ``built`` relabelled by sigma (if given)."""
        rows = built.rows if sigma is None else oracle.relabeled(built.rows, sigma)
        n = len(rows)
        k = oracle.pair_count(rows)
        degree = Fraction(k, n * n)
        top = built.top
        if top is not None and sigma is not None:
            top = sigma[top]
        answer = {
            "pairs": k,
            "degree": [degree.numerator, degree.denominator],
            "commutative": built.commutative,
            "top": top,
            "pi": built.pi,
        }
        if sigma is not None:
            answer["iso"] = {"source": built.rows, "file": rows}
        return answer

    def check(self, job: dict, expected: dict, result: dict, cache: dict) -> list:
        failures = []
        for want, got in zip(expected["answers"], result["results"]):
            failures.append(self._failure(want, got))
        return failures

    @staticmethod
    def _failure(want: dict, got: dict) -> str | None:
        if "error" in got:
            return got["error"]
        plain = {k: v for k, v in want.items() if k != "iso"}
        found = {k: v for k, v in got.items() if k != "iso"}
        if plain != found:
            return f"expected {plain}, got {found}"
        if "iso" not in want:
            return None if "iso" not in got else "unexpected isomorphism check"
        iso = want["iso"]
        witness = got.get("iso")
        if iso is None:
            return None if witness is None else "found an isomorphism that cannot exist"
        if witness is None or oracle.relabeled(iso["source"], tuple(witness)) != iso["file"]:
            return "isomorphism witness does not map the source onto the file"
        return None


WORKLOADS = {
    "enum6": Enum(order=6, jobs=1),
    "enum6-jobs2": Enum(order=6, jobs=2),
    "construct": Construct(qs=(20, 25, 30, 35, 40), escalating_q=12, family_n=24),
    "verify": Verify(
        originals=tuple(range(20, 121, 5)),
        corrupted=tuple(range(20, 121, 10)),
        relabelled=tuple(range(25, 116, 10)),
        negatives=(45, 85),
    ),
}

# The same workloads at toy size, for selftest.py.
TOY = {
    "enum6": Enum(order=4, jobs=1),
    "enum6-jobs2": Enum(order=4, jobs=2),
    "construct": Construct(qs=(5, 7), escalating_q=3, family_n=6),
    "verify": Verify(
        originals=tuple(range(6, 17)),
        corrupted=tuple(range(6, 17, 2)),
        relabelled=tuple(range(7, 16, 2)),
        negatives=(9, 13),
    ),
}
