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
    _as_arrangement,
    _as_params,
    from_params,
    params_of,
    require_hypothesis,
)
from .cayley_menger import CMTable, ConfigMatrix, config_minor_pair
from .errors import (
    DegenerateConfigError,
    EmptyIntersectionError,
    FdNoiseError,
    HypothesisError,
    SphexError,
)
from .identities import volume_identity_coefficients
from .volume import (
    AREA_TOL,
    Rng,
    _closed_form_failed,
    _faces,
    _lens,
    _mean_error,
    _ray_scores,
    _require_gap,
    chamber_area_closed_n2,
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


def _theta_dict(table: CMTable, params: ParamVector, J, keys) -> dict:
    """theta_J's entries on `keys`, and only those are computed: theta_J
    carries ("r", j) for J = (j,), else ("d", j, k) for the pairs of J."""
    p = len(J)
    if p == 1:
        key = ("r", J[0])
        return {key: -0.5 / params.get(key)} if key in keys else {}
    out = {}
    for j, k in itertools.combinations(J, 2):
        key = _dkey(j, k)
        if key not in keys:
            continue
        rest = tuple(m for m in J if m not in (j, k))
        total = 0.0
        for seq in itertools.permutations(rest):
            prod = 1.0
            prefix = ()
            for mu in seq:
                rows = ("0", mu) + prefix + (j, k)
                num = table.chain(("0", "*") + prefix + (j, k), rows)
                # num / B(rows; rows), both times the sign of the latter
                prod *= (-1) ** (len(rows) - 1) * num / table.signed(
                    rows, DegenerateConfigError, "theta expansion")
                prefix = (mu,) + prefix
            total += prod
        out[key] = (-1) ** p * total * 0.5 / params.get(key)
    return out


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
    basis = param_basis(params.n)
    return OneForm.from_dict(basis, _theta_dict(table, params, J, basis))


def theta_prime(m: ConfigMatrix, J) -> OneForm:
    """The restricted-model one-form theta'_J over the entry basis.

    theta'_j is the bare offset differential; theta'_jk corrects the
    entry differential by the two offset forms; larger J recurse
    through ratios of configuration minors, divided by A'(0 J) < 0
    (`ConfigMatrix.signed`).
    """
    J = tuple(sorted(set(J)))
    if not J:
        raise ValueError("J must be non-empty")

    def den(dJ) -> float:   # A'(0 dJ)
        return -m.signed(dJ, True, DegenerateConfigError, "theta' recursion")

    def build(Jx) -> dict:
        p = len(Jx)
        if p == 1:
            return {("a0", Jx[0]): 1.0}
        if p == 2:
            j, k = Jx
            out = {("a", j, k): 1.0}
            for lead, other in ((k, j), (j, k)):
                out[("a0", lead)] = -config_minor_pair(
                    m, (0, lead), (other, lead)) / den((lead,))
            return out
        out = {}
        for nu in Jx:
            dJ = tuple(i for i in Jx if i != nu)
            _add(out, build(dJ),
                 -config_minor_pair(m, (0,) + dJ, (nu,) + dJ) / den(dJ))
        return out

    return OneForm.from_dict(config_basis(m.n), build(J))


def dpsi_form(a, j: int, k: int) -> OneForm:
    """Differential of the half intersection angle psi_jk / 2.

    Expressed in the squared-parameter basis; the printed dr and drho
    components are divided by 2r and 2 rho respectively.  TangencyError
    if B(0*jk) has no sign, EmptyIntersectionError if it has the wrong
    one, as in `angles_pair`.
    """
    params = _as_params(a)
    table = CMTable.from_params(params)
    s = math.sqrt(table.signed(("0", "*", j, k), EmptyIntersectionError,
                               "angles of spheres j, k"))
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
    closed lens volume for n = 2..5.  TangencyError if the balls'
    B(0*12) has no sign, EmptyIntersectionError if it has the wrong one.
    """
    table, h1, h2 = _lens(r1, r2, rho)
    area = unit_sphere_area(n - 2)
    face1 = area * r1 ** (n - 1) * sin_power_integral(n - 2, h1)
    face2 = area * r2 ** (n - 1) * sin_power_integral(n - 2, h2)
    b_st = table.signed(("0", "*", 1, 2), EmptyIntersectionError,
                        "lens")  # -B(0*12)
    waist = math.sqrt(b_st) / (2.0 * rho)
    v_waist = area * waist ** (n - 2)
    coeffs = {
        ("r", 1): face1 / (2.0 * r1),
        ("r", 2): face2 / (2.0 * r2),
        ("d", 1, 2): -(1.0 / (n - 1)) * v_waist * math.sqrt(b_st / 4.0)
        / (2.0 * rho * rho),
    }
    basis = (("r", 1), ("r", 2), ("d", 1, 2))
    return OneForm.from_dict(basis, coeffs)


def dB_volume_form(a, c: Chamber, samples: int = 1_000_000,
                   rng: "Rng | None" = None) -> OneForm:
    """Differential of the chamber volume in the squared parameters.

    Pairs each face volume with its one-form: the coefficient on
    theta_J is -((n-p)!/(n-1)!) * s_J * sqrt((-1)^(p+1) B(0*J)/2^p) v_J
    where s_J = +1 for the all-minus chamber and (-1)^{|J cap plus|}
    otherwise, and the determinant term carries -1/(n-1)! (all-minus),
    -(-1)^{#plus}/(n-1)! (mixed), or +(-1)^(n+1)/(n-1)! (all-plus).
    Face volumes come from one `_faces` call; face J (in order of size,
    then index) draws from `rng.substream(position of J)`.  The form
    needs the hypotheses of theorems I and II (`_require_form`).
    """
    rng = rng if rng is not None else Rng(0)
    a = _as_arrangement(a)
    _require_form(a, c)
    return _dB_form(a, c, param_basis(a.n), samples, rng)[0]


def _require_form(a: Arrangement, c: Chamber):
    """HypothesisError (IndeterminateSignError if unresolved) unless H1
    holds for a chamber with a minus sign, or the gap is certified
    (`_require_gap`) for the all-plus chamber."""
    if c.minus_set():
        require_hypothesis(a, "h1", "the one-form does not apply")
    else:
        _require_gap(a, "the one-form does not apply")


def _dB_form(a: Arrangement, c: Chamber, keys, samples: int, rng: Rng):
    """`dB_volume_form` on the basis `keys`, and each coefficient's
    standard error sqrt(sum_J (w_J theta_J[key] sigma_J)^2).  Face J is
    measured (on its usual stream) only if theta_J has an entry on `keys`.
    On the full basis the pair is stored on `a`, next to its faces, under
    ("dB_form", c.signs) when every face is exact (drew nothing).
    """
    n = a.n
    stored = ("dB_form", c.signs) if keys == param_basis(n) else None
    if stored is not None and stored in a._store:
        return a._store[stored]
    table = CMTable.from_arrangement(a)
    params = params_of(a)
    vol_coefs, vol_full = volume_identity_coefficients(table, n, c)

    Js = sorted(vol_coefs, key=lambda t: (len(t), t))
    thetas = {J: _theta_dict(table, params, J, keys) for J in Js}
    faces = _faces(a, c, {J: rng.substream(s) for s, J in enumerate(Js)
                          if thetas[J]}, samples)
    out, var = {}, {}
    for J, est in faces.items():
        th = thetas[J]
        vJ, sJ = est.value, est.std_error
        # relative to the volume identity, every coefficient of the
        # differential differs by exactly (-1)^p, in all chamber cases,
        # the determinant term (p = n + 1) included
        w = vol_coefs[J] * (-1) ** len(J)
        _add(out, th, w * vJ)
        _add(var, {key: v * v for key, v in th.items()}, (w * sJ) ** 2)
    _add(out, _theta_dict(table, params, tuple(range(1, n + 2)), keys),
         vol_full * (-1) ** (n + 1))
    form = (OneForm.from_dict(keys, out),
            {key: math.sqrt(var.get(key, 0.0)) for key in keys})
    if stored is not None and all(est.exact for est in faces.values()):
        a._store.setdefault(stored, form)
    return form


_FORM = "the unit-sphere one-form"


def _root(m: ConfigMatrix, J, zero=False) -> float:
    """sqrt A'(J), or sqrt(-A'(0 J)) with `zero`, for a unit-sphere form."""
    return math.sqrt(m.signed(J, zero, HypothesisError, _FORM))


def _minor0(m: ConfigMatrix, J) -> float:
    """A'(0 J) < 0, that a unit-sphere form divides by."""
    return -m.signed(J, True, HypothesisError, _FORM)


def dA_volume_form_theorem_III(m: ConfigMatrix) -> OneForm:
    """Differential of the spherical region area over the entry basis.

    Implemented for n = 3, where the face measures are the boundary arc
    lengths (p = 1) and region vertex counts (p = 2), both exact.  It
    takes sqrt A'(J) and sqrt(-A'(0 N)) and divides by A'(0 J)
    (`ConfigMatrix.signed`): HypothesisError where the circles of J miss
    each other, A'(J) < 0.
    """
    n = m.n
    if n != 3:
        raise ValueError("the restricted variational form is built for n = 3")
    faces = {(j,): arc for j, arc in sphere_arc_lengths(m).items()}
    faces.update(sphere_vertex_counts(m))
    out = {}
    for p in range(1, n):
        for J in itertools.combinations(range(1, n + 1), p):
            w = (-(-1) ** p * math.factorial(n - p - 1) / math.factorial(n - 2)
                 * _root(m, J) / _minor0(m, J) * float(faces[J]))
            _add(out, theta_prime(m, J).as_dict(), w)
    full = tuple(range(1, n + 1))
    w = (-1) ** n / math.factorial(n - 2) / _root(m, full, True)
    _add(out, theta_prime(m, full).as_dict(), w)
    return OneForm.from_dict(config_basis(n), out)


def dA_volume_form_n3(m: ConfigMatrix) -> OneForm:
    """The explicit three-circle shape of the restricted variational form.

    Independent of the general assembly, which it cross-checks; it
    refuses where that does.
    """
    if m.n != 3:
        raise ValueError("explicit shape exists for n = 3 only")
    arcs = sphere_arc_lengths(m)
    out = {}
    for j in (1, 2, 3):
        _add(out, theta_prime(m, (j,)).as_dict(),
             arcs[j] / _minor0(m, (j,)))
    for j, k in itertools.combinations((1, 2, 3), 2):
        _add(out, theta_prime(m, (j, k)).as_dict(),
             -_root(m, (j, k)) / _minor0(m, (j, k)))
    _add(out, theta_prime(m, (1, 2, 3)).as_dict(),
         -1.0 / _root(m, (1, 2, 3), True))
    return OneForm.from_dict(config_basis(3), out)


@dataclass(frozen=True)
class VariationReport:
    """Finite-difference check of one coefficient of a volume one-form.

    `method` says how the difference was obtained: "closed" (exact
    areas: n = 2 closed forms, or the unit-sphere areas from their
    boundary arcs) or "conditional-mc" (paired ray scores).
    `fallback_reason` says why an n = 2 closed form was not used; None
    when it was.  `z` is the signed residual in standard errors,
    (fd - formula) / hypot(sigma, sigma_coef), for "conditional-mc";
    None for "closed", whose tolerance is not a multiple of an error.
    """

    parameter: tuple
    fd_value: float
    formula_value: float
    residual: float
    tolerance: float
    passed: bool
    method: str
    fallback_reason: "str | None" = None
    z: "float | None" = None

    def to_dict(self) -> dict:
        return {
            "parameter": _param_name(self.parameter),
            "fd_value": self.fd_value,
            "formula_value": self.formula_value,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "method": self.method,
            "fallback_reason": self.fallback_reason,
            "z": self.z,
        }


def _param_name(key) -> str:
    if key[0] == "r":
        return f"r{key[1]}"
    if key[0] == "d":
        return f"d{key[1]}{key[2]}"
    if key[0] == "a0":
        return f"a0{key[1]}"
    return f"a{key[1]}{key[2]}"


def _ray_fd(ap: Arrangement, am: Arrangement, c: Chamber, samples: int,
            rng: Rng, eps: float):
    """Central difference of paired ray scores, and its standard error.

    Both perturbed chambers are scored on the same `samples` lines
    (`_ray_scores`, as in `chamber_volume`), and each sphere they share
    (a `from_params` step keeps most) once: fd is |S^(n-1)| / 2n times
    the mean paired score difference over 2 eps, sigma its standard
    error over frames.  FdNoiseError if no line's score changed.
    """
    changed = 0

    def diffs():
        nonlocal changed
        for S, k, x in _ray_scores((ap, am), c, samples, rng):
            changed += np.count_nonzero(x[0] - x[1])
            yield S[0] - S[1], k

    mean, err = _mean_error(diffs(), samples)
    if changed == 0:
        raise FdNoiseError("step too small: no line's score changed")
    scale = unit_sphere_area(ap.n - 1) / (2 * ap.n) / (2.0 * eps)
    return scale * mean, scale * err


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
    Chamber, `param` a squared-parameter key.  The form needs H1 for a
    chamber with a minus sign and a certified gap (`_require_gap`) for
    the all-plus chamber, else HypothesisError (IndeterminateSignError if
    unresolved), as in theorems I and II (`_require_form`).  The
    coefficient is that of
    `dB_volume_form` on `rng.substream(1)`, from the faces whose theta_J
    carries `param` alone (at n = 3 one face for r_j, one arc and two
    vertex counts for d_jk), measured on `a` (on `from_params` of a
    ParamVector); at n = 2 it is read from the full form, assembled once
    per arrangement and chamber and stored.  A step that takes the
    parameter to <= 0 raises ValueError.  For n = 2 the closed areas of
    the perturbed vectors p +- eps are differenced with no
    reconstruction, each certified by its hypothesis (from p's sign
    table, `require_hypothesis`), and checked to 1e-6 ("closed").
    Otherwise, and when an n = 2 closed form raises (named in
    `fallback_reason`), both perturbed vectors are reconstructed and
    their chambers scored on the same `samples` rays of
    `rng.substream(2)` ("conditional-mc";
    `_ray_fd` draws `chamber_volume`'s rays, so `samples` must exceed
    one frame), with tolerance max(3 hypot(sigma, sigma_coef),
    1e-4 |coefficient|), sigma_coef from the sampled faces (0 up to
    n = 3); FdNoiseError if no line's score changed or sigma exceeds the
    difference.
    model "unit-sphere": `a` is a ConfigMatrix (n = 3), `c` is ignored,
    `param` an entry key.  The two region areas are exact, from their
    boundary arcs ("closed", sigma 0; tolerance 1e-4 |coefficient|), so
    the check measures the central difference's O(eps^2) error, and
    FdNoiseError is raised when eps is so small that the areas' accuracy
    `AREA_TOL` / eps exceeds 1e-5 |coefficient|.  `samples` and `rng`
    are not used.  A `param` outside the model's basis raises KeyError.
    """
    rng = rng if rng is not None else Rng(0)
    param = tuple(param)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if model == "euclidean":
        params = _as_params(a)
        n = params.n
        value = params.get(param)
        if eps <= 1e-10 * abs(value):
            raise FdNoiseError("step too small relative to the parameter")
        if value - eps <= 0:
            raise ValueError(
                f"eps {eps:.6g} takes the squared parameter "
                f"{_param_name(param)} = {value:.6g} to {value - eps:.6g}; "
                "it must stay positive")
        arr = _as_arrangement(a)
        _require_form(arr, c)
        form, errs = _dB_form(arr, c, param_basis(n) if n == 2 else (param,),
                              samples, rng.substream(1))
        coef = form.get(param)
        pp, pm = (params.with_entry(param, x) for x in (value + eps,
                                                         value - eps))
        reason = None
        if n == 2:
            try:
                fd = (chamber_area_closed_n2(pp, c)
                      - chamber_area_closed_n2(pm, c)) / (2.0 * eps)
            except SphexError as e:
                reason = _closed_form_failed(e)
            else:
                tolerance = 1e-6
                residual = abs(fd - coef)
                return VariationReport(param, fd, coef, residual, tolerance,
                                       residual <= tolerance, "closed")
        fd, sigma = _ray_fd(from_params(pp, n), from_params(pm, n), c,
                            samples, rng.substream(2), eps)
        return _fd_report(param, fd, sigma, coef, "conditional-mc", reason,
                          errs[param])
    if model == "unit-sphere":
        m = a
        if not isinstance(m, ConfigMatrix):
            raise ValueError("unit-sphere model expects a ConfigMatrix")
        if param not in config_basis(m.n):
            raise KeyError(param)
        base = m.offset(param[1]) if param[0] == "a0" else m.inner(param[1],
                                                                  param[2])
        if eps <= 1e-10 * max(1.0, abs(base)):
            raise FdNoiseError("step too small relative to the parameter")
        form = dA_volume_form_theorem_III(m)
        coef = form.get(param)
        if AREA_TOL / eps > 1e-5 * abs(coef):
            raise FdNoiseError("step too small for the areas' accuracy")
        up, dn = (sphere_region_area_mc(_perturbed_config(m, param, x),
                                        samples, rng).value
                  for x in (eps, -eps))
        return _fd_report(param, (up - dn) / (2.0 * eps), 0.0, coef,
                          "closed", None)
    raise ValueError(f"unknown model {model!r}")


def _fd_report(param, fd, sigma, coef, method, reason, coef_sigma=0.0):
    """Report with tolerance max(3 hypot(sigma, coef_sigma), 1e-4 |coef|)
    and, for "conditional-mc", z = (fd - coef) / hypot(sigma, coef_sigma)
    (None if that is 0), after the noise guard on the difference's own
    sigma."""
    if sigma > abs(fd):
        raise FdNoiseError(
            f"fd noise dominates: sigma {sigma:.3e} vs fd {fd:.3e}")
    error = math.hypot(sigma, coef_sigma)
    tolerance = max(3.0 * error, 1e-4 * abs(coef))
    residual = abs(fd - coef)
    z = (fd - coef) / error if method == "conditional-mc" and error else None
    return VariationReport(param, fd, coef, residual, tolerance,
                           residual <= tolerance, method, reason, z)
