"""Domain types: masses, torus momenta, finitely supported potentials, grids.

All types are immutable after construction and safe to share between
threads.  Each is one class on a ``collections.namedtuple`` base; its
``__new__`` validates the arguments, raising ``InputError``.  Momentum
components live on the torus (-pi, pi]; grid nodes live in [-pi, pi) with
an optional sub-step offset.
"""

from __future__ import annotations

import json
import math
import reprlib
from collections import namedtuple
from types import MappingProxyType
from typing import IO, Callable, Mapping, Union

import numpy as np

from .errors import EvennessError, InputError, PotentialFormatError

Site = tuple[int, int, int]

TWO_PI = 2.0 * math.pi


def _wrap(x: float) -> float:
    """Reduce a real number modulo 2*pi into (-pi, pi]; one already there is
    kept as given, as the reduction rounds."""
    if -math.pi < x <= math.pi:
        return x
    w = math.pi - (math.pi - x) % TWO_PI
    return w if w > -math.pi else math.pi  # -pi can leak through cancellation


class MassPair(namedtuple("MassPair", "m1 m2")):
    """Masses of the two particles; both strictly positive, with finite reciprocals."""

    __slots__ = ()

    def __new__(cls, m1: float, m2: float) -> "MassPair":
        if not all(0.0 < _real(m, "mass") < math.inf for m in (m1, m2)):
            raise InputError(f"masses must be positive and finite, got {m1}, {m2}")
        if not all(math.isfinite(1.0 / m) for m in (m1, m2)):
            raise InputError(f"mass reciprocals overflow to infinity, got {m1}, {m2}")
        return super().__new__(cls, m1, m2)

    def equal_masses(self) -> bool:
        return abs(self.m1 - self.m2) <= 1e-12 * max(self.m1, self.m2)

    @property
    def inv_sum(self) -> float:
        return 1.0 / self.m1 + 1.0 / self.m2

    @property
    def inv_diff(self) -> float:
        return 1.0 / self.m1 - 1.0 / self.m2


class TorusVector(namedtuple("TorusVector", "c1 c2 c3")):
    """A point of the three-torus; components normalized into (-pi, pi]."""

    __slots__ = ()

    def __new__(cls, c1: float, c2: float, c3: float) -> "TorusVector":
        wrapped = []
        for name, c in zip(cls._fields, (c1, c2, c3)):
            c = _real(c, f"torus component {name}")
            if not math.isfinite(c):
                raise InputError(f"torus component {name} must be finite, got {c}")
            wrapped.append(_wrap(c))
        return super().__new__(cls, *wrapped)

    @property
    def components(self) -> tuple[float, float, float]:
        return (self.c1, self.c2, self.c3)

    def as_array(self) -> np.ndarray:
        return np.array(self.components)

    def is_interior(self) -> bool:
        """True iff every component lies in the open cube (-pi, pi)^3."""
        return all(-math.pi < c < math.pi for c in self.components)

    def __neg__(self) -> "TorusVector":
        return type(self)(-self.c1, -self.c2, -self.c3)


class Quasimomentum(TorusVector):
    """Total quasi-momentum k of the two-particle fiber Hamiltonian."""

    __slots__ = ()


class RelativeMomentum(TorusVector):
    """Relative momentum q (evaluation/integration variable)."""

    __slots__ = ()


def _real(x, name: Union[str, Callable[[], str]],
          error: type[InputError] = InputError) -> float:
    """The one gate for numbers: a Python or numpy int or float, never a
    bool or a str, nor an int beyond the float range, returned as a float.
    name is x's name in the refusal, or a function called only to refuse."""
    try:
        if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
            why = f"must be a real number, got {_echo(x)}"
        else:
            return float(x)
    except OverflowError:
        why = f"is an integer beyond the float range ({x.bit_length()} bits)"
    raise error(f"{name() if callable(name) else name} {why}")


ECHO_CHARS = 80  # longest echo of an input value in an error message


def _echo(x) -> str:
    """repr(x) shortened by ``reprlib``, which also bounds the nesting it
    descends, and cut to ECHO_CHARS: a value read from a file can be any size."""
    try:
        text = reprlib.repr(x)
    except ValueError:  # an int of more digits than repr converts
        return "<a value too large to print>"
    return text if len(text) <= ECHO_CHARS else text[: ECHO_CHARS - 3] + "..."


def _site(s) -> Site:
    """The one gate for sites: a tuple, or a JSON list, of three Python or
    numpy integers, not bools.  A coordinate is never rounded: 1.5 is
    refused, not read as 1."""
    if not (isinstance(s, (tuple, list)) and len(s) == 3 and all(
            isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in s)):
        raise PotentialFormatError(f"site must be a triple of integers, got {_echo(s)}")
    return (int(s[0]), int(s[1]), int(s[2]))


def _canonical_entries(entries: Mapping[Site, float]) -> dict[Site, float]:
    """Validate sites, finiteness and evenness (zeros too), fill missing pairs, then drop zeros."""
    out: dict[Site, float] = {}
    for s, v in entries.items():
        s = _site(s)
        v = _real(v, lambda: f"value at site {_echo(s)}", PotentialFormatError)
        if not math.isfinite(v):
            raise PotentialFormatError(f"non-finite value {v!r} at site {_echo(s)}")
        neg = (-s[0], -s[1], -s[2])
        # s and neg enter out together, so s in out means neg is there too
        if s in out and out[s] != v:
            raise EvennessError(
                f"evenness violated: v({_echo(neg)})={out[neg]} but v({_echo(s)})={v}")
        out[s] = v
        out[neg] = v
    return {s: v for s, v in out.items() if v != 0.0}


class Potential(namedtuple("Potential", "entries")):
    """Finitely supported even real function v-hat on the lattice Z^3.

    ``entries`` is a read-only mapping, so evenness and ``support_radius``
    hold for the object's lifetime.
    """

    __slots__ = ()

    def __new__(cls, entries: Mapping[Site, float]) -> "Potential":
        return super().__new__(cls, MappingProxyType(_canonical_entries(entries)))

    @property
    def support_radius(self) -> int:
        """Max sup-norm over supported sites (0 for the empty potential)."""
        if not self.entries:
            return 0
        return max(max(abs(c) for c in s) for s in self.entries)

    def is_nonnegative(self) -> bool:
        return all(v >= 0.0 for v in self.entries.values())

    def is_empty(self) -> bool:
        return not self.entries

    def value(self, s: Site) -> float:
        return self.entries.get(_site(s), 0.0)

    def scaled(self, c: float) -> "Potential":
        return Potential({s: c * v for s, v in self.entries.items()})

    def sorted_sites(self) -> list[Site]:
        return sorted(self.entries)

    def axis_sites(self, j: int) -> list[int]:
        """Integers s with v(s * e_j) != 0, for axis j in {0, 1, 2}."""
        out = []
        for site, _ in self.entries.items():
            if all(site[i] == 0 for i in range(3) if i != j):
                out.append(site[j])
        return sorted(out)


def load_potential(source: Union[str, bytes, IO]) -> Potential:
    """Parse the JSON potential format and return the symmetrized Potential.

    Format: ``{"sites": [{"s": [i, j, k], "v": number}, ...]}``.  A site's
    negative pair is auto-filled when absent; conflicting pairs and
    duplicate sites are rejected.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PotentialFormatError(f"not valid UTF-8: {exc}") from exc
    try:
        doc = json.loads(source)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal of too many digits
        raise PotentialFormatError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the recursion limit
        raise PotentialFormatError(f"JSON nested too deeply: {exc}") from None
    if not isinstance(doc, dict) or "sites" not in doc or not isinstance(doc["sites"], list):
        raise PotentialFormatError('expected an object with a "sites" list')
    raw = {}
    for item in doc["sites"]:
        try:
            s = item["s"]
            v = item["v"]
        except (TypeError, KeyError) as exc:
            raise PotentialFormatError(f"bad site record {_echo(item)}") from exc
        site = _site(s)
        if site in raw:
            raise PotentialFormatError(f"duplicate site {site}")
        raw[site] = v
    return Potential(raw)


class MomentumGrid(namedtuple("MomentumGrid", "n_per_dim offset")):
    """Uniform N^3 grid on the torus with a fractional sub-step offset.

    Node components are -pi + (n + offset) * (2*pi/N), n = 0..N-1.  The
    default offset 0.5 keeps every component away from pi, and for even N
    away from 0 too, so that the dispersion minimum at k = 0 falls between
    nodes; for odd N the middle node sits at 0.
    """

    __slots__ = ()

    def __new__(cls, n_per_dim: int, offset: float = 0.5) -> "MomentumGrid":
        if not isinstance(n_per_dim, (int, np.integer)) or n_per_dim < 2:
            raise InputError(f"need an integer N >= 2, got {n_per_dim!r}")
        if not (0.0 <= _real(offset, "offset") < 1.0):
            raise InputError(f"offset must be in [0, 1), got {offset}")
        return super().__new__(cls, int(n_per_dim), offset)

    @property
    def dim(self) -> int:
        return self.n_per_dim**3

    def axis_nodes(self) -> np.ndarray:
        n = self.n_per_dim
        return -math.pi + (np.arange(n) + self.offset) * (TWO_PI / n)

    def nodes(self) -> np.ndarray:
        """All N^3 nodes as an (N^3, 3) array in C (row-major) index order."""
        a = self.axis_nodes()
        g = np.stack(np.meshgrid(a, a, a, indexing="ij"), axis=-1)
        return g.reshape(-1, 3)
