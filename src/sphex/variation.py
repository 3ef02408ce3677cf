"""Differential one-forms of the volume in configuration parameters.

Two parameter bases are used.  The Euclidean model works in the squared
parameters r_j^2 and rho_jk^2, basis keys ("r", j) and ("d", j, k) with
j < k; formulas printed in dr or drho are converted by the chain rule
dr = dr^2/(2r).  The restricted model on the unit sphere works in the
configuration-matrix entries, basis keys ("a0", j) and ("a", j, k).

The special one-forms theta_J are supported on the distance parameters
of J alone once |J| >= 2; theta'_J is defined by a recursion on minors
of the configuration matrix.  Both expansions are validated against the
printed low-order closed forms and against finite differences.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arrangement import (
    Arrangement,
    Chamber,
    ParamVector,
    from_params,
    params_of,
)
from .cayley_menger import CMTable, ConfigMatrix, config_minor, config_minor_pair
from .errors import (
    DegenerateConfigError,
    FdNoiseError,
    SphexError,
    TangencyError,
)
from .identities import volume_identity_coefficients
from .volume import (
    QUAD_TOL,
    Rng,
    _closed_form_failed,
    _lens_half_angles,
    chamber_area_closed_n2,
    chamber_chords,
    face_volume,
    sin_power_integral,
    sphere_arc_lengths,
    sphere_region_area_mc,
    sphere_vertex_counts,
    unit_sphere_area,
)


def param_basis(n: int):
    """Euclidean parameter basis: squared radii then squared distances."""
    keys = [("r", j) for j in range(1, n + 2)]
    keys += [("d", j, k)
             for j, k in itertools.combinations(range(1, n + 2), 2)]
    return tuple(keys)


def config_basis(n: int):
    """Restricted-model basis: offsets then symmetric entries."""
    keys = [("a0", j) for j in range(1, n + 1)]
    keys += [("a", j, k) for j, k in itertools.combinations(range(1, n + 1), 2)]
    return tuple(keys)


@dataclass(frozen=True)
class OneForm:
    """A covector over a named parameter basis."""

    basis: tuple
    coeffs: tuple

    def __post_init__(self):
        if len(self.basis) != len(self.coeffs):
            raise ValueError("basis and coefficients must align")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("one-form coefficients must be finite")

    @classmethod
    def from_dict(cls, basis, coeffs: dict) -> "OneForm":
        basis = tuple(basis)
        unknown = set(coeffs) - set(basis)
        if unknown:
            raise ValueError(f"coefficients outside the basis: {unknown}")
        return cls(basis, tuple(float(coeffs.get(k, 0.0)) for k in basis))

    def get(self, key) -> float:
        return self.coeffs[self.basis.index(key)]

    def as_dict(self) -> dict:
        return dict(zip(self.basis, self.coeffs))

    def pair(self, direction: dict) -> float:
        """Evaluate on a tangent direction given as {basis key: rate}."""
        return math.fsum(self.get(k) * v for k, v in direction.items())


def _dkey(j, k):
    return ("d", min(j, k), max(j, k))


def _add(out: dict, form: dict, w: float):
    """out += w * form, key by key."""
    for key, cval in form.items():
        out[key] = out.get(key, 0.0) + w * cval


def _theta_dict(table: CMTable, params: ParamVector, J) -> dict:
    p = len(J)
    if p == 1:
        j = J[0]
        return {("r", j): -0.5 / params.get(("r", j))}
    if p == 2:
        key = _dkey(*J)
        return {key: 0.5 / params.get(key)}
    out = {}
    for j, k in itertools.combinations(J, 2):
        rest = tuple(m for m in J if m not in (j, k))
        total = 0.0
        for seq in itertools.permutations(rest):
            prod = 1.0
            prefix = ()
            for mu in seq:
                num = table.chain(("0", "*") + prefix + (j, k),
                                  ("0", mu) + prefix + (j, k))
                den = table.chain(("0", mu) + prefix + (j, k),
                                  ("0", mu) + prefix + (j, k))
                if den == 0.0:
                    raise DegenerateConfigError(
                        "vanishing determinant in the one-form expansion")
                prod *= num / den
                prefix = (mu,) + prefix
            total += prod
        key = _dkey(j, k)
        out[key] = (-1) ** p * total * 0.5 / params.get(key)
    return out


def _as_params(a) -> ParamVector:
    if isinstance(a, ParamVector):
        return a
    return params_of(a)


def theta(a, J) -> OneForm:
    """The special one-form theta_J in the squared-parameter basis.

    For |J| = 1 it is -d log r_j^2 / 2; for |J| = 2 it is
    +d log rho_jk^2 / 2; for larger J an expansion over ordered
    sequences of the remaining indices, supported on the distance
    parameters of J only.  Accepts an Arrangement or a ParamVector.
    """
    params = _as_params(a)
    J = tuple(sorted(set(J)))
    if not J:
        raise ValueError("J must be non-empty")
    table = CMTable.from_params(params)
    return OneForm.from_dict(param_basis(params.n),
                             _theta_dict(table, params, J))


def theta_prime(m: ConfigMatrix, J) -> OneForm:
    """The restricted-model one-form theta'_J over the entry basis.

    theta'_j is the bare offset differential; theta'_jk corrects the
    entry differential by the two offset forms; larger J recurse
    through ratios of configuration minors.
    """
    J = tuple(sorted(set(J)))
    if not J:
        raise ValueError("J must be non-empty")

    def build(Jx) -> dict:
        p = len(Jx)
        if p == 1:
            return {("a0", Jx[0]): 1.0}
        if p == 2:
            j, k = Jx
            out = {("a", j, k): 1.0}
            for lead, other in ((k, j), (j, k)):
                den = config_minor_pair(m, (0, lead), (0, lead))
                if den == 0.0:
                    raise DegenerateConfigError("vanishing minor in recursion")
                out[("a0", lead)] = \
                    -config_minor_pair(m, (0, lead), (other, lead)) / den
            return out
        out = {}
        for nu in Jx:
            dJ = tuple(i for i in Jx if i != nu)
            den = config_minor_pair(m, (0,) + dJ, (0,) + dJ)
            if den == 0.0:
                raise DegenerateConfigError("vanishing minor in recursion")
            _add(out, build(dJ),
                 -config_minor_pair(m, (0,) + dJ, (nu,) + dJ) / den)
        return out

    return OneForm.from_dict(config_basis(m.n), build(J))


def dpsi_form(a, j: int, k: int) -> OneForm:
    """Differential of the half intersection angle psi_jk / 2.

    Expressed in the squared-parameter basis; the printed dr and drho
    components are divided by 2r and 2 rho respectively.
    """
    params = _as_params(a)
    table = CMTable.from_params(params)
    s_sq = -table.chain(("0", "*", j, k), ("0", "*", j, k))
    if s_sq <= 0:
        raise TangencyError("spheres are tangent or disjoint")
    s = math.sqrt(s_sq)
    mixed_r = table.chain(("0", "*", j), ("0", "*", k))
    mixed_d = table.chain(("0", j, k), ("0", "*", k))
    coeffs = {
        ("r", j): -mixed_r / (2.0 * params.get(("r", j))) / s,
        ("r", k): 1.0 / s,
        _dkey(j, k): -mixed_d / (2.0 * params.get(_dkey(j, k))) / s,
    }
    return OneForm.from_dict(param_basis(params.n), coeffs)


def lens_variation_form(n: int, r1: float, r2: float, rho: float) -> OneForm:
    """Differential of the lens volume in the two-ball parameters.

    Coefficients on dr_1^2 and dr_2^2 are the boundary cap areas over
    2r; the distance coefficient couples the waist sphere measure to
    the distance one-form.  Checked against finite differences of the
    closed lens volume for n = 2..5.
    """
    h1, h2 = _lens_half_angles(r1, r2, rho)
    area = unit_sphere_area(n - 2)
    face1 = area * r1 ** (n - 1) * sin_power_integral(n - 2, h1)
    face2 = area * r2 ** (n - 1) * sin_power_integral(n - 2, h2)
    b_st = (rho ** 4 + r1 ** 4 + r2 ** 4
            - 2.0 * (rho * r1) ** 2 - 2.0 * (rho * r2) ** 2
            - 2.0 * (r1 * r2) ** 2)
    if b_st >= 0:
        raise TangencyError("not a proper lens")
    waist = math.sqrt(-b_st) / (2.0 * rho)
    v_waist = area * waist ** (n - 2)
    coeffs = {
        ("r", 1): face1 / (2.0 * r1),
        ("r", 2): face2 / (2.0 * r2),
        ("d", 1, 2): -(1.0 / (n - 1)) * v_waist * math.sqrt(-b_st / 4.0)
        / (2.0 * rho * rho),
    }
    basis = (("r", 1), ("r", 2), ("d", 1, 2))
    return OneForm.from_dict(basis, coeffs)


def dB_volume_form(a, c: Chamber, samples: int = 1_000_000,
                   rng: "Rng | None" = None,
                   face_values: "dict | None" = None) -> OneForm:
    """Differential of the chamber volume in the squared parameters.

    Pairs each face volume with its one-form: the coefficient on
    theta_J is -((n-p)!/(n-1)!) * s_J * sqrt((-1)^(p+1) B(0*J)/2^p) v_J
    where s_J = +1 for the all-minus chamber and (-1)^{|J cap plus|}
    otherwise, and the determinant term carries -1/(n-1)! (all-minus),
    -(-1)^{#plus}/(n-1)! (mixed), or +(-1)^(n+1)/(n-1)! (all-plus).
    Face volumes come from the volume module unless supplied in
    `face_values`.
    """
    if isinstance(a, ParamVector):
        a = from_params(a, a.n)
    n = a.n
    rng = rng if rng is not None else Rng(0)
    table = CMTable.from_arrangement(a)
    params = params_of(a)
    vol_coefs, vol_full = volume_identity_coefficients(table, n, c)
    out = {}
    stream = 0
    for J in sorted(vol_coefs, key=lambda t: (len(t), t)):
        p = len(J)
        if face_values is not None and J in face_values:
            vJ = float(face_values[J])
        else:
            vJ = face_volume(a, c, J, samples, rng.substream(stream)).value
        stream += 1
        # relative to the volume identity, every coefficient of the
        # differential differs by exactly (-1)^p, in all chamber cases,
        # the determinant term (p = n + 1) included
        w = vol_coefs[J] * (-1) ** p
        _add(out, _theta_dict(table, params, J), w * vJ)
    N = tuple(range(1, n + 2))
    _add(out, _theta_dict(table, params, N), vol_full * (-1) ** (n + 1))
    return OneForm.from_dict(param_basis(n), out)


def dA_volume_form_theorem_III(m: ConfigMatrix,
                               face_values: "dict | None" = None) -> OneForm:
    """Differential of the spherical region area over the entry basis.

    Implemented for n = 3, where the face measures are the boundary arc
    lengths (p = 1) and region vertex counts (p = 2), both exact.
    """
    n = m.n
    if n != 3:
        raise ValueError("the restricted variational form is built for n = 3")
    if face_values is None:
        arcs = sphere_arc_lengths(m)
        counts = sphere_vertex_counts(m)
        face_values = {(j,): arcs[j] for j in arcs}
        face_values.update({jk: float(cnt) for jk, cnt in counts.items()})
    out = {}
    for p in range(1, n):
        for J in itertools.combinations(range(1, n + 1), p):
            minor = config_minor(m, J)
            den = config_minor(m, J, with_zero=True)
            w = (-(-1) ** p * math.factorial(n - p - 1) / math.factorial(n - 2)
                 * math.sqrt(minor) / den * float(face_values[J]))
            _add(out, theta_prime(m, J).as_dict(), w)
    full = tuple(range(1, n + 1))
    den = config_minor(m, full, with_zero=True)
    w = (-1) ** n / math.factorial(n - 2) / math.sqrt(-den)
    _add(out, theta_prime(m, full).as_dict(), w)
    return OneForm.from_dict(config_basis(n), out)


def dA_volume_form_n3(m: ConfigMatrix,
                      face_values: "dict | None" = None) -> OneForm:
    """The explicit three-circle shape of the restricted variational form.

    Independent of the general assembly; used to cross-check it.
    """
    if m.n != 3:
        raise ValueError("explicit shape exists for n = 3 only")
    if face_values is None:
        arcs = sphere_arc_lengths(m)
        face_values = {(j,): arcs[j] for j in arcs}
        face_values.update({(j, k): 1.0
                            for j, k in itertools.combinations((1, 2, 3), 2)})
    out = {}
    for j in (1, 2, 3):
        _add(out, theta_prime(m, (j,)).as_dict(),
             float(face_values[(j,)]) / config_minor(m, (j,), with_zero=True))
    for j, k in itertools.combinations((1, 2, 3), 2):
        _add(out, theta_prime(m, (j, k)).as_dict(),
             -math.sqrt(config_minor(m, (j, k)))
             / config_minor(m, (j, k), with_zero=True)
             * float(face_values[(j, k)]))
    _add(out, theta_prime(m, (1, 2, 3)).as_dict(),
         -1.0 / math.sqrt(-config_minor(m, (1, 2, 3), with_zero=True)))
    return OneForm.from_dict(config_basis(3), out)


@dataclass(frozen=True)
class VariationReport:
    """Finite-difference check of one coefficient of a volume one-form.

    `method` says how the difference was obtained: "closed" (n = 2
    closed-form areas), "quadrature" (exact unit-sphere areas) or
    "conditional-mc" (paired chord lengths, or a unit-sphere area whose
    quadrature did not converge).  `fallback_reason` says why the
    closed form or the quadrature was not used; None when it was.
    """

    parameter: tuple
    fd_value: float
    formula_value: float
    residual: float
    tolerance: float
    passed: bool
    method: str
    fallback_reason: "str | None" = None

    def to_dict(self) -> dict:
        return {
            "parameter": _param_name(self.parameter),
            "fd_value": self.fd_value,
            "formula_value": self.formula_value,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _param_name(key) -> str:
    if key[0] == "r":
        return f"r{key[1]}"
    if key[0] == "d":
        return f"d{key[1]}{key[2]}"
    if key[0] == "a0":
        return f"a0{key[1]}"
    return f"a{key[1]}{key[2]}"


def _perturbed_params(params: ParamVector, key, eps: float):
    return (params.with_entry(key, params.get(key) + eps),
            params.with_entry(key, params.get(key) - eps))


def _chord_fd(ap: Arrangement, am: Arrangement, c: Chamber, samples: int,
              rng: Rng, eps: float):
    """Central difference of paired chord lengths.

    Both perturbed chambers are scored on the same random lines
    (`chamber_chords`); the difference is area times the mean paired
    chord difference, and sigma the sample standard error of those
    differences.  Returns (fd, sigma, number of lines whose chord
    changed).
    """
    area, chunks = chamber_chords((ap, am), c, samples, rng)
    total = total_sq = 0.0
    changed = 0
    for L in chunks:
        d = L[0] - L[1]
        total += float(d.sum())
        total_sq += float(d @ d)
        changed += int(np.count_nonzero(d))
    mean = total / samples
    var = max(total_sq / samples - mean * mean, 0.0)
    scale = area / (2.0 * eps)
    return scale * mean, scale * math.sqrt(var / samples), changed


def _perturbed_config(m: ConfigMatrix, key, eps: float) -> ConfigMatrix:
    off = dict(enumerate(m.offsets, start=1))
    inner = {}
    for j, k in itertools.combinations(range(1, m.n + 1), 2):
        inner[(j, k)] = m.inner(j, k)
    if key[0] == "a0":
        off[key[1]] = off[key[1]] + eps
    else:
        inner[(key[1], key[2])] = inner[(key[1], key[2])] + eps
    return ConfigMatrix.from_entries(m.n, [off[j] for j in sorted(off)], inner)


def verify_variation_fd(model: str, a, c, param, eps: float = 1e-4,
                        samples: int = 1_000_000,
                        rng: "Rng | None" = None) -> VariationReport:
    """Central finite difference of a volume against the one-form.

    model "euclidean": `a` is an Arrangement (or ParamVector), `c` a
    Chamber, `param` a squared-parameter key.  For n = 2 the difference
    of the closed-form areas is checked to 1e-6 ("closed").  Otherwise,
    and when an n = 2 closed form raises (named in `fallback_reason`),
    both perturbed chambers are scored on the same `samples` random
    lines by their exact chord lengths ("conditional-mc"), with tolerance
    max(3 sigma, 1e-4 |coefficient|); FdNoiseError if no line's chord
    changed or sigma exceeds the difference.
    model "unit-sphere": `a` is a ConfigMatrix, `c` is ignored, `param`
    an entry key.  The two region areas are exact quadratures for n = 3
    ("quadrature", sigma 0; tolerance 1e-4 |coefficient|), so the check
    measures the central difference's O(eps^2) error, and FdNoiseError
    is raised when eps is so small that the quadrature's accuracy
    `QUAD_TOL` / eps exceeds 1e-5 |coefficient|.  `samples` and `rng`
    serve only an area whose quadrature falls back to conditional MC.
    """
    rng = rng if rng is not None else Rng(0)
    param = tuple(param)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if model == "euclidean":
        params = _as_params(a)
        n = params.n
        if eps <= 1e-10 * abs(params.get(param)):
            raise FdNoiseError("step too small relative to the parameter")
        form = dB_volume_form(from_params(params, n), c, samples,
                              rng.substream(1))
        coef = form.get(param)
        pp, pm = _perturbed_params(params, param, eps)
        ap = from_params(pp, n)
        am = from_params(pm, n)
        reason = None
        if n == 2:
            try:
                fd = (chamber_area_closed_n2(ap, c)
                      - chamber_area_closed_n2(am, c)) / (2.0 * eps)
            except SphexError as e:
                reason = _closed_form_failed(e)
            else:
                tolerance = 1e-6
                residual = abs(fd - coef)
                return VariationReport(param, fd, coef, residual, tolerance,
                                       residual <= tolerance, "closed")
        fd, sigma, changed = _chord_fd(ap, am, c, samples, rng.substream(2),
                                       eps)
        if changed == 0:
            raise FdNoiseError("step too small: no line's chord changed")
        return _fd_report(param, fd, sigma, coef, "conditional-mc", reason)
    if model == "unit-sphere":
        m = a
        if not isinstance(m, ConfigMatrix):
            raise ValueError("unit-sphere model expects a ConfigMatrix")
        base = m.offset(param[1]) if param[0] == "a0" else m.inner(param[1],
                                                                  param[2])
        if eps <= 1e-10 * max(1.0, abs(base)):
            raise FdNoiseError("step too small relative to the parameter")
        form = dA_volume_form_theorem_III(m)
        coef = form.get(param)
        mp = _perturbed_config(m, param, eps)
        mm = _perturbed_config(m, param, -eps)
        up = sphere_region_area_mc(mp, samples, rng.substream(2))
        dn = sphere_region_area_mc(mm, samples, rng.substream(2))
        fd = (up.value - dn.value) / (2.0 * eps)
        sigma = math.hypot(up.std_error, dn.std_error) / (2.0 * eps)
        if sigma == 0.0 and QUAD_TOL / eps > 1e-5 * abs(coef):
            raise FdNoiseError("step too small for the quadrature's accuracy")
        method = "quadrature" if up.exact and dn.exact else "conditional-mc"
        return _fd_report(param, fd, sigma, coef, method,
                          up.fallback_reason or dn.fallback_reason)
    raise ValueError(f"unknown model {model!r}")


def _fd_report(param, fd, sigma, coef, method, reason):
    """Report with tolerance max(3 sigma, 1e-4 |coef|), after the noise guard."""
    if sigma > abs(fd):
        raise FdNoiseError(
            f"fd noise dominates: sigma {sigma:.3e} vs fd {fd:.3e}")
    tolerance = max(3.0 * sigma, 1e-4 * abs(coef))
    residual = abs(fd - coef)
    return VariationReport(param, fd, coef, residual, tolerance,
                           residual <= tolerance, method, reason)
