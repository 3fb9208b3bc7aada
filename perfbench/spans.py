"""Outside-in span tracing of the nbibp package.

The tracer replaces module attributes with timing wrappers; it edits no
package source.  A name such as ``prior_state`` is bound separately in every
module that imported it (``inference``, ``cli``, ``validation`` and the
package ``__init__``), so each binding that is the original object gets the
same wrapper.  Class targets wrap one method on the class itself.

Spans (name, start, end, parent) are kept in flat in-memory arrays while the
traced run is going and written out once at the end.  A span's self time is
its duration minus the durations of its direct children.  The wrappers read
the clock and the arguments' identity only, so tracing consumes no random
draws.
"""

import time
from array import array
from collections import Counter

import numpy as np

# (module, attribute, method wrapped on a class or None, extra stat)
TARGETS = (
    ("numerics", "RngStream", "__init__", None),
    ("structures", "FeatureArray", "__post_init__", None),
    ("structures", "log_pmf_array", None, None),
    ("structures", "array_to_json", None, None),
    ("distributions", "bnb_sample", None, None),
    ("distributions", "digamma_sample_rounds", None, "rounds"),
    ("generative", "predictive_step", None, None),
    ("generative", "nbibp_simulate", None, None),
    ("inference", "sweep_once", None, None),
    ("inference", "update_entry", None, "accepted"),
    ("inference", "update_singletons", None, "accepted"),
    ("inference", "update_theta", None, None),
    ("inference", "update_mass_T", None, None),
    ("inference", "update_c_r", None, None),
    ("inference", "resample_counts", None, None),
    ("inference", "prior_state", None, None),
    ("inference", "chain_record", None, None),
    ("cli", "main", None, None),
)

MODULES = ("numerics", "distributions", "structures", "generative", "inference", "validation", "cli")

# digamma_sample_rounds' round total is reported under this shorter name.
ROUNDS_NAME = "distributions.digamma.rounds"


class Tracer:
    """Installs the wrappers, records spans, and reduces them to per-name stats."""

    def __init__(self, package):
        self.package = package
        self.mods = [package] + [getattr(package, m) for m in MODULES]
        self.names = [f"{mod}.{attr}" for mod, attr, _, _ in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.active = False
        self._undo = []

    def _wrap(self, nid, fn, extra):
        name = self.names[nid]

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.stack.append(sid)
            w_before = args[0].W if extra == "accepted" else None
            self.start.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[sid] = time.perf_counter()
                self.stack.pop()
            if extra == "accepted" and args[0].W is not w_before:
                self.counts[name + ".accepted"] += 1
            elif extra == "rounds":
                self.counts[ROUNDS_NAME] += out[1]
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for nid, (mod, attr, method, extra) in enumerate(TARGETS):
            owner = getattr(self.package, mod)
            orig = getattr(owner, attr)
            if method is not None:
                fn = orig.__dict__[method]
                self._undo.append((orig, method, fn))
                setattr(orig, method, self._wrap(nid, fn, extra))
                continue
            wrapper = self._wrap(nid, orig, extra)
            for m in self.mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)
        return self

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def stats(self):
        """{'<module>.<function>.<stat>': value} for calls, s, self_s and counts."""
        nid = np.asarray(self.name_id)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=self_t, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[name + ".calls"] = int(calls[i])
            out[name + ".s"] = float(total[i])
            out[name + ".self_s"] = float(own[i])
        for mod, attr, _, extra in TARGETS:
            if extra == "accepted":
                out[f"{mod}.{attr}.accepted"] = self.counts[f"{mod}.{attr}.accepted"]
        out[ROUNDS_NAME] = self.counts[ROUNDS_NAME]
        return out

    def write(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )
