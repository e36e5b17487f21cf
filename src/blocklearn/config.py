"""Experiment configs: their schema, the checks that name each bad field or
spec value (MalformedConfig), and the network and profile they resolve to.
It loads no recursion, so ``blocklearn predict`` runs without the runner."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .exceptions import MalformedConfig, check_memory, check_pair, check_strategy, reading
from .graphs import BlockModel, Network, SbmParams, load_network, sample_sbm
from .models import LikelihoodProfile, bernoulli_profile, load_profile, random_multinomial_profile

__all__ = ["ExperimentConfig", "resolve_inputs"]


@dataclass
class ExperimentConfig:
    """Full description of a Monte Carlo experiment.

    ``network`` may be a BlockModel law (SbmParams is its two-community
    form), a Network, a network-file path, or a dict spec (kinds "sbm",
    "blocks", "file").  ``profile`` may be a LikelihoodProfile, a
    profile-file path, or a dict spec (kinds "bernoulli", "multinomial",
    "file").  A null ``burn_in`` defaults to
    ``ceil(5 / delta)`` for the step-size strategy and 0 otherwise.
    Construction checks the scalar field types, ``pair``, ``replicates >= 1``
    and ``0 <= burn_in <= horizon``, raising MalformedConfig naming the field,
    and stores integer and real fields as plain ``int`` and ``float``.
    ``n_jobs`` is accepted and ignored: replicates run batched in one process.
    ``store_traces`` makes ``run_experiment`` write the trace files into
    ``out_dir`` as the run goes, so it needs an ``out_dir`` there; configs
    without one still load, for ``blocklearn predict``.
    """

    network: object
    profile: object
    strategy: str = "asl"
    delta: float = None
    horizon: int = 1000
    burn_in: int = None
    replicates: int = 100
    base_seed: int = 0
    pair: tuple = (0, 1)
    estimator: str = "mu"
    fixed_graph: bool = False
    store_traces: bool = False
    record_observations: bool = False
    n_jobs: int = 1
    out_dir: str = None

    SCHEMA_VERSION = 1

    def __post_init__(self):
        for f in fields(self):
            kind = _FIELD_KINDS.get(f.type)
            value = getattr(self, f.name)
            if kind is not None and not (value is None and f.default is None):
                _check_field(f.name, value, kind)
                # a numpy scalar passes the check; keep the plain type JSON writes
                if kind is Integral:
                    setattr(self, f.name, int(value))
                elif kind is Real:
                    setattr(self, f.name, float(value))
        if not isinstance(self.pair, (list, tuple)) or len(self.pair) != 2:
            raise MalformedConfig(f"config field 'pair' must be two integers, got {self.pair!r}")
        for value in self.pair:
            _check_field("pair", value, Integral)
        check_strategy(self.strategy, self.delta, self.estimator)
        if self.burn_in is None:
            self.burn_in = math.ceil(5.0 / self.delta) if self.strategy == "asl" else 0
        if self.horizon < self.burn_in:
            raise MalformedConfig(f"config field 'horizon' must be at least burn_in "
                                  f"{self.burn_in}, got {self.horizon}")
        self.pair = (int(self.pair[0]), int(self.pair[1]))

    @classmethod
    def from_dict(cls, data, **overrides):
        """Build a config from its JSON form, with non-None ``overrides``
        applied first.  A document that is not a JSON object, a ``version``
        other than the integer 1, or an unknown or missing field, raises
        MalformedConfig naming it; the field values are checked as for any
        config."""
        if not isinstance(data, dict):
            found = _JSON_TYPES.get(type(data), type(data).__name__)
            raise MalformedConfig(f"a config must be a JSON object, got {found}")
        data = dict(data)
        version = data.pop("version", cls.SCHEMA_VERSION)
        if not _fits(version, Integral) or version != cls.SCHEMA_VERSION:
            raise MalformedConfig(f"config field 'version' must be {cls.SCHEMA_VERSION}, "
                                  f"got {version!r}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise MalformedConfig(f"unknown config field {', '.join(map(repr, unknown))}")
        for name in ("network", "profile"):
            if name not in data:
                raise MalformedConfig(f"config field {name!r} is missing")
        return cls(**data)

    @classmethod
    def from_json(cls, path, **overrides):
        """``from_dict`` of a JSON file; MalformedConfig names a file that is not
        JSON, and MalformedFile a directory."""
        with reading(path), open(path) as fh:
            try:
                data = json.load(fh)
            except ValueError as error:
                raise MalformedConfig(f"config file {str(path)!r} is not JSON: {error}") from error
        return cls.from_dict(data, **overrides)

    def to_dict(self):
        def _spec(value):
            if isinstance(value, BlockModel):
                kind = "sbm" if isinstance(value, SbmParams) else "blocks"
                return {"kind": kind, **value.to_dict()}
            if isinstance(value, Network):
                return {"kind": "network", "size": value.size}
            if isinstance(value, LikelihoodProfile):
                return {"kind": "profile", "reference": value.reference}
            if isinstance(value, Path):
                return str(value)
            return _plain(value)

        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data.update(network=_spec(self.network), profile=_spec(self.profile), pair=list(self.pair))
        return {"version": self.SCHEMA_VERSION, **data}


# the JSON values a scalar field of each annotated type takes; a field whose
# default is None also takes null
_FIELD_KINDS = {"str": str, "int": Integral, "float": Real, "bool": bool}
# a one-tuple (kind,) stands for a list of values of that kind
_KIND_NAMES = {str: "a string", Integral: "an integer", Real: "a number", bool: "true or false",
               (Integral,): "a list of integers", (Real,): "a list of numbers",
               ((Real,),): "a list of lists of numbers"}
# the JSON name of each type a parsed JSON document other than an object has
_JSON_TYPES = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}
# the kind of each field of an "sbm" network spec
_SBM_KINDS = {name: Integral if name in ("n0", "n1") else Real for name in SbmParams.FIELDS}


# the range of each config or spec field that has one: its text and a test that NaN fails
_RANGES = {
    **dict.fromkeys(["replicates", "n0", "n1", "alphabet"], ("at least 1", lambda n: n >= 1)),
    **dict.fromkeys(["burn_in", "seed"], ("at least 0", lambda n: n >= 0)),
    **dict.fromkeys(["p0", "p1", "q0", "q1"], ("in [0, 1]", lambda p: 0 <= p <= 1)),
    "n_hypotheses": ("at least 2", lambda n: n >= 2),
    "sizes": ("integers of at least 1", lambda sizes: all(n >= 1 for n in sizes)),
    "probs": ("a square matrix of numbers in [0, 1]", lambda rows: all(
        len(row) == len(rows) and all(0 <= p <= 1 for p in row) for row in rows)),
    "success_probs": ("at least two numbers in (0, 1)",
                      lambda probs: len(probs) >= 2 and all(0 < p < 1 for p in probs)),
}


def _plain(value):
    """A spec dict's value with numpy scalars as the plain types JSON writes."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


def _fits(value, kind):
    if isinstance(kind, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(v, kind[0]) for v in value)
    # bool is an Integral, but true is not a replicate count
    return isinstance(value, bool) == (kind is bool) and isinstance(value, kind)


def _check_field(name, value, kind, owner="config field"):
    if not _fits(value, kind):
        raise MalformedConfig(f"{owner} {name!r} must be {_KIND_NAMES[kind]}, got {value!r}")
    text, test = _RANGES.get(name, (None, None))
    if test is not None and not test(value):
        raise MalformedConfig(f"{owner} {name!r} must be {text}, got {value!r}")


def _spec_values(spec, section, kinds, optional=None):
    """The values of the fields named in ``kinds`` in a network or profile
    spec dict, then those named in ``optional`` (None when missing or null),
    each checked against its kind and range.  A field that neither names,
    other than ``kind``, is refused."""
    fields = {**kinds, **(optional or {})}
    missing = [name for name in kinds if name not in spec]
    if missing:
        raise MalformedConfig(f"{section} spec of kind {spec['kind']!r} is missing "
                              f"{', '.join(map(repr, missing))}")
    unknown = [name for name in spec if name != "kind" and name not in fields]
    if unknown:
        raise MalformedConfig(f"{section} spec of kind {spec['kind']!r} has unknown "
                              f"field(s) {', '.join(map(repr, unknown))}")
    for name, kind in fields.items():
        if name in kinds or spec.get(name) is not None:
            _check_field(name, spec[name], kind, f"{section} spec field")
    return [spec.get(name) for name in fields]


def _build(section, kind, builder, *args, **kwargs):
    """``builder(*args, **kwargs)``, raising its ValueError as MalformedConfig naming the spec."""
    try:
        return builder(*args, **kwargs)
    except ValueError as error:
        raise MalformedConfig(f"{section} spec of kind {kind!r}: {error}") from error


def _resolve_network_source(spec):
    """Return either a sampling law (a BlockModel) or a fixed Network."""
    if isinstance(spec, (BlockModel, Network)):
        return spec
    if isinstance(spec, (str, Path)):
        return load_network(spec)
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "sbm":
            return _build("network", kind, SbmParams, *_spec_values(spec, "network", _SBM_KINDS))
        if kind == "blocks":
            return _build("network", kind, BlockModel, *_spec_values(
                spec, "network", {"sizes": (Integral,), "probs": ((Real,),)}))
        if kind == "file":
            return load_network(*_spec_values(spec, "network", {"path": str}))
        raise MalformedConfig(f"unknown network spec kind {kind!r}")
    raise MalformedConfig(f"cannot interpret network spec of type {type(spec).__name__}")


def _resolve_profile(spec, clusters):
    if isinstance(spec, LikelihoodProfile):
        return spec
    if isinstance(spec, (str, Path)):
        return load_profile(spec)
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if kind == "bernoulli":
            return _build("profile", kind, bernoulli_profile, clusters,
                          *_spec_values(spec, "profile", {"success_probs": (Real,)}))
        if kind == "multinomial":
            return _build("profile", kind, random_multinomial_profile, clusters, *_spec_values(
                spec, "profile", {"alphabet": Integral, "seed": Integral},
                optional={"n_hypotheses": Integral}))
        if kind == "file":
            return load_profile(*_spec_values(spec, "profile", {"path": str}))
        raise MalformedConfig(f"unknown profile spec kind {kind!r}")
    raise MalformedConfig(f"cannot interpret profile spec of type {type(spec).__name__}")


def resolve_inputs(config):
    """The network source, cluster labels and likelihood profile of a config.

    The source is a fixed Network (a network file or object, or with
    ``fixed_graph`` the law's draw at ``base_seed``), or the BlockModel law
    each replicate draws its own graph from.  A law whose labels, and fixed
    graph, would not fit in memory raises MalformedConfig naming ``network``.
    """
    source = _resolve_network_source(config.network)
    if not isinstance(source, Network):
        check_memory(8 * source.size + config.fixed_graph * source.draw_bytes(), MalformedConfig,
                     f"config field 'network': a law of {source.size} agents")
        if config.fixed_graph:
            if config.base_seed < 0:
                raise MalformedConfig("config field 'base_seed' must be at least 0 to draw the "
                                      f"fixed graph, got {config.base_seed}")
            source = sample_sbm(source, seed=config.base_seed)
    clusters = source.clusters if isinstance(source, Network) else source.labels()
    profile = _resolve_profile(config.profile, clusters)
    if profile.n_agents != clusters.size:
        raise MalformedConfig(f"the network has {clusters.size} agents, "
                              f"the profile {profile.n_agents}")
    check_pair(config.pair, profile.n_hypotheses)
    return source, clusters, profile
