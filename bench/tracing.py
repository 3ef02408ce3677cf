"""Layer spans for the traced pass, recorded from outside the library.

`Tracer.install()` wraps the public functions of each sphex module and
rebinds every wrapper wherever a `sphex.*` module holds the original under
that name (modules import many functions by name), and wraps `CMTable`
methods on the class.  `uninstall()` restores the originals.  Nothing
under `src/` changes.

Each call records a span (name, layer group, start, end, parent, item)
in memory; `write()` dumps them as JSON lines when the run ends.  A
group's self time is the sum over its spans of duration minus the time
covered by child spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

#: (module, function names, layer group); a group may be refined per call
#: by a classifier in `Tracer._classify`
WRAPPED = (
    ("arrangement", ("check_hypotheses",), "arrangement.check_hypotheses"),
    ("arrangement", ("from_params",), "arrangement.from_params"),
    ("arrangement", ("normalize", "restrict_to_unit_sphere",
                     "load_arrangement"), "arrangement.other"),
    ("cayley_menger", ("config_matrix",), "cayley_menger.config_matrix"),
    ("cayley_menger", ("config_minor", "config_minor_pair"),
     "cayley_menger.config_minor"),
    ("intersect", ("intersection_sphere", "vertices", "angles_pair",
                   "triangle_angles", "sphere_angle", "sphere_circle"),
     "intersect"),
    ("volume", ("pseudo_triangle_area_closed", "chamber_area_closed_n2",
                "chamber_arc_angles", "lens_volume_closed", "cap_integral",
                "simplex_volume", "decomposition_cell_coefficient",
                "decomposition_cell_volume", "sphere_arc_lengths",
                "sphere_vertex_counts", "circle_feasible_arcs"),
     "volume.closed"),
    ("volume", ("chamber_volume_mc", "face_volume_mc",
                "sphere_region_area_mc"), "volume.mc"),
    ("volume", ("chamber_volume", "face_volume"), "volume.dispatch"),
    ("identities", ("check_theorem_I_i", "check_theorem_II_i",
                    "check_decomposition", "check_gauss_bonnet_n3",
                    "check_lemma5_pointwise", "check_prop4_residue",
                    "check_prop6_values"), "identities.check"),
    ("identities", ("volume_identity_coefficients",), "identities.other"),
    ("variation", ("dB_volume_form", "dA_volume_form_theorem_III",
                   "dA_volume_form_n3", "theta", "theta_prime", "dpsi_form",
                   "lens_variation_form"), "variation.forms"),
    ("variation", ("verify_variation_fd",), "variation.fd"),
    ("cli", ("main",), "cli.main"),
)
#: CMTable methods wrapped on the class
CMTABLE = (("from_arrangement", "cayley_menger.tables", True),
           ("from_params", "cayley_menger.tables", True),
           ("chain", "cayley_menger.chain", False))


class Tracer:
    def __init__(self, sx_modules):
        #: short name -> loaded module: "sphex" for the package,
        #: "volume" for sphex.volume, ...
        self.mods = sx_modules
        self.spans = []                 # (name, group, t0, t1, parent, item)
        self.stack = []                 # [span index, child ns]
        self.self_ns = Counter()
        self.calls = Counter()
        self.count = Counter()
        self.item = None
        self._restore = []

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name, group):
        spans, stack = self.spans, self.stack
        classify = self._classify
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0]
            stack.append(frame)
            spans.append(None)
            result = err = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                err = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                g = classify(name, group, args, result, err)
                dur = t1 - t0
                self.self_ns[g] += dur - frame[1]
                self.calls[g] += 1
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, g, t0, t1, parent, self.item)

        return wrapper

    def _classify(self, name, group, args, result, err):
        """Per-call group refinements and counters."""
        c = self.count
        if group == "volume.mc":
            if result is not None and result.exact:
                return "volume.closed"  # face_volume_mc counting vertices
            if result is not None:
                c["volume.mc.samples"] += result.samples
        elif group == "volume.dispatch" and result is not None:
            c["volume.returns"] += 1
            c["volume.exact_returns"] += bool(result.exact)
            if args[0].n == 2 and not result.exact:
                c["volume.fallbacks"] += 1
        elif group == "identities.check" and result is not None:
            if result.tolerance >= abs(result.lhs):
                c["identities.inconclusive"] += 1
            if not result.passed:
                c["identities.failed"] += 1
        elif group == "variation.fd" and err is not None:
            if type(err).__name__ == "FdNoiseError":
                c["variation.fd_noise"] += 1
        return group

    def install(self):
        targets = list(self.mods.values())
        for modname, names, group in WRAPPED:
            mod = self.mods.get(modname)
            if mod is None:
                continue
            for name in names:
                orig = getattr(mod, name)
                w = self._wrap(orig, name, group)
                for m in targets:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, w)
        cls = self.mods["cayley_menger"].CMTable
        for name, group, is_cm in CMTABLE:
            raw = cls.__dict__[name]
            self._restore.append((cls, name, raw))
            if is_cm:
                setattr(cls, name,
                        classmethod(self._wrap(raw.__func__, name, group)))
            else:
                setattr(cls, name, self._wrap(raw, name, group))

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict:
        """Per-round counts and self times of the named layers."""
        s = {g: v / 1e9 / rounds for g, v in self.self_ns.items()}
        n = {g: v / rounds for g, v in self.calls.items()}
        c = {k: v / rounds for k, v in self.count.items()}
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        put("arrangement.check_hypotheses.calls",
            n.get("arrangement.check_hypotheses", 0), "count")
        put("arrangement.check_hypotheses.self_s",
            s.get("arrangement.check_hypotheses", 0.0), "s")
        put("arrangement.from_params.calls",
            n.get("arrangement.from_params", 0), "count")
        put("arrangement.from_params.self_s",
            s.get("arrangement.from_params", 0.0), "s")
        tables = n.get("cayley_menger.tables", 0)
        chains = n.get("cayley_menger.chain", 0)
        put("cayley_menger.tables_built", tables, "count")
        put("cayley_menger.chain.calls", chains, "count")
        put("cayley_menger.chain.self_s",
            s.get("cayley_menger.chain", 0.0), "s")
        put("cayley_menger.chain_per_table",
            chains / tables if tables else 0.0, "ratio")
        put("cayley_menger.config_matrix.calls",
            n.get("cayley_menger.config_matrix", 0), "count")
        put("cayley_menger.config_matrix.self_s",
            s.get("cayley_menger.config_matrix", 0.0), "s")
        put("intersect.calls", n.get("intersect", 0), "count")
        put("intersect.self_s", s.get("intersect", 0.0), "s")
        put("volume.closed.calls", n.get("volume.closed", 0), "count")
        put("volume.closed.self_s", s.get("volume.closed", 0.0), "s")
        samples = c.get("volume.mc.samples", 0)
        mc_s = s.get("volume.mc", 0.0)
        put("volume.mc.calls", n.get("volume.mc", 0), "count")
        put("volume.mc.samples", samples, "count")
        put("volume.mc.self_s", mc_s, "s")
        put("volume.mc.ns_per_sample",
            mc_s * 1e9 / samples if samples else 0.0, "ns")
        returns = c.get("volume.returns", 0)
        put("volume.exact_share",
            c.get("volume.exact_returns", 0) / returns if returns else 0.0,
            "ratio")
        put("volume.fallbacks", c.get("volume.fallbacks", 0), "count")
        put("identities.checks", n.get("identities.check", 0), "count")
        put("identities.self_s", s.get("identities.check", 0.0)
            + s.get("identities.other", 0.0), "s")
        put("identities.inconclusive",
            c.get("identities.inconclusive", 0), "count")
        put("identities.failed", c.get("identities.failed", 0), "count")
        put("variation.forms.calls", n.get("variation.forms", 0), "count")
        put("variation.forms.self_s", s.get("variation.forms", 0.0), "s")
        put("variation.fd.calls", n.get("variation.fd", 0), "count")
        put("variation.fd.self_s", s.get("variation.fd", 0.0), "s")
        put("variation.fd_noise", c.get("variation.fd_noise", 0), "count")
        mains = n.get("cli.main", 0)
        put("cli.main.calls", mains, "count")
        put("cli.main.self_s",
            s.get("cli.main", 0.0) / mains if mains else 0.0, "s")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, group, t0, t1, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "layer": group,
                                     "start_ns": t0, "end_ns": t1,
                                     "parent": parent, "item": item}) + "\n")
