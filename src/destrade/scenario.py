"""Scenario files: a small INI-like format driving the CLI.

Sections are [market], [communities] (repeatable, one per community),
[consensus], [faults] and [run]; entries are key = value lines, with
'#' comments.  configparser cannot express the repeated community
sections, hence the hand-rolled reader.  Parse errors carry the line
number and section so a typo is findable.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .consensus import DELTA_LEADER, DELTA_VOTER, Behavior, FaultProfile
from .equilibrium import NeConfig
from .market import ChpParams, CityMarket, CommunityParams, PricePair

_SCALAR_SECTIONS = ("market", "consensus", "faults", "run")

_KNOWN_KEYS = {
    "market": {"q", "eta_g", "eta_r", "f_m", "c_f", "r_e", "r_h"},
    "communities": {"k_e", "k_h", "m_min"},
    "consensus": {"n_nodes", "rounds", "delta1", "delta2"},
    "faults": {"dissenters", "silent_leaders", "invalid_leaders",
               "equivocators", "drop_prob"},
    "run": {"seed", "delta0", "decay", "init", "max_iters", "days",
            "cities", "funding"},
}


# Largest consensus group a scenario may ask for: [consensus] n_nodes
# nodes, or the 2 x [run] cities aggregators of a full run.
MAX_GROUP = 1000
# The most work a scenario may ask for otherwise: [consensus] rounds,
# [run] days x cities (the city-days a full run settles) and [run]
# max_iters (the price walk's steps).
MAX_ROUNDS = 100000
MAX_CITY_DAYS = 100000
MAX_ITERS = 1000000


class ScenarioError(ValueError):
    pass


class Scenario:
    """Raw key/value view of one scenario file: one dict per section,
    a list of them for [communities]."""

    __slots__ = ("market", "communities", "consensus", "faults", "run")

    def __init__(self):
        self.market: Dict[str, str] = {}
        self.communities: List[Dict[str, str]] = []
        self.consensus: Dict[str, str] = {}
        self.faults: Dict[str, str] = {}
        self.run: Dict[str, str] = {}


def parse_scenario(text: str) -> Scenario:
    sc = Scenario()
    current: Optional[Dict[str, str]] = None
    current_name = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name == "communities":
                current = {}
                sc.communities.append(current)
            elif name in _SCALAR_SECTIONS:
                section = getattr(sc, name)
                if section:
                    raise ScenarioError(f"line {lineno}: duplicate section [{name}]")
                current = section
            else:
                raise ScenarioError(f"line {lineno}: unknown section [{name}]")
            current_name = name
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected key = value, got {raw!r}")
        if current is None:
            raise ScenarioError(f"line {lineno}: entry before any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS[current_name]:
            raise ScenarioError(
                f"line {lineno}: unknown key {key!r} in section [{current_name}]")
        if key in current:
            raise ScenarioError(
                f"line {lineno}: duplicate key {key!r} in section [{current_name}]")
        current[key] = value
    return sc


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text (byte {exc.start}: "
                            f"{exc.reason})") from None
    except (IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        raise ScenarioError(f"{path}: cannot read: {exc.strerror}") from None
    try:
        return parse_scenario(text)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


# ============================================================
# typed accessors
# ============================================================


def _as_float(section: Dict[str, str], name: str, key: str,
              default: Optional[float] = None) -> float:
    if key not in section:
        if default is None:
            raise ScenarioError(f"section [{name}] is missing {key!r}")
        return default
    try:
        v = float(section[key])
    except ValueError:
        raise ScenarioError(
            f"section [{name}]: {key} = {section[key]!r} is not a number") from None
    if not math.isfinite(v):
        raise ScenarioError(f"section [{name}]: {key} = {section[key]!r} is not finite")
    return v


def _as_int(section: Dict[str, str], name: str, key: str,
            default: Optional[int] = None) -> int:
    if key in section:
        try:  # exact above 2**53, where the float path would round
            return int(section[key])
        except ValueError:
            pass
    v = _as_float(section, name, key, default)
    if v != int(v):
        raise ScenarioError(f"section [{name}]: {key} must be an integer")
    return int(v)


def _check(ok: bool, name: str, key: str, value, need: str) -> None:
    """Reject an in-format value that lies outside its admissible range."""
    if not ok:
        raise ScenarioError(f"section [{name}]: {key} = {value} is out of range, "
                            f"need {need}")


def build_city(sc: Scenario) -> CityMarket:
    chp = ChpParams(
        q=_as_float(sc.market, "market", "q"),
        eta_g=_as_float(sc.market, "market", "eta_g"),
        eta_r=_as_float(sc.market, "market", "eta_r"),
        f_m=_as_float(sc.market, "market", "f_m"),
        c_f=_as_float(sc.market, "market", "c_f"),
    )
    if not sc.communities:
        raise ScenarioError("at least one [communities] section is required")
    communities = []
    for i, com in enumerate(sc.communities):
        communities.append(CommunityParams.for_chp(
            chp,
            k_e=_as_float(com, f"communities #{i}", "k_e"),
            k_h=_as_float(com, f"communities #{i}", "k_h"),
            m_min=_as_float(com, f"communities #{i}", "m_min", 0.0),
        ))
    return CityMarket(
        chp=chp,
        r_e=_as_float(sc.market, "market", "r_e"),
        r_h=_as_float(sc.market, "market", "r_h"),
        communities=tuple(communities),
    )


def build_ne_config(sc: Scenario) -> NeConfig:
    init: Union[str, PricePair] = sc.run.get("init", "low").strip()
    if isinstance(init, str) and " " in init:
        parts = init.split()
        if len(parts) != 2:
            raise ScenarioError(f"init = {init!r}: expected 'p_e p_h' or a keyword")
        try:
            init = PricePair(float(parts[0]), float(parts[1]))
        except ValueError:
            raise ScenarioError(f"init = {init!r}: prices must be numbers") from None
    max_iters = _as_int(sc.run, "run", "max_iters", 50000)
    _check(max_iters <= MAX_ITERS, "run", "max_iters", max_iters, f"at most {MAX_ITERS}")
    return NeConfig(
        delta0=_as_float(sc.run, "run", "delta0", 1e-10),
        decay=_as_float(sc.run, "run", "decay", 0.999),
        init=init,
        max_iters=max_iters,
    )


# [faults] role counts in assignment order.
_FAULT_ROLES = (
    ("dissenters", Behavior.DISSENTER),
    ("silent_leaders", Behavior.SILENT_LEADER),
    ("invalid_leaders", Behavior.INVALID_BLOCK_LEADER),
    ("equivocators", Behavior.EQUIVOCATOR),
)


def build_faults(sc: Scenario, ids: List[str]) -> FaultProfile:
    """The [faults] section on the ids that run.

    Roles go onto ids in order, dissenters first; the remaining ids are
    honest.
    """
    drop_prob = _as_float(sc.faults, "faults", "drop_prob", 0.0)
    _check(0.0 <= drop_prob <= 1.0, "faults", "drop_prob", drop_prob, "0 to 1")
    free = iter(ids)
    behaviors: Dict[str, Behavior] = {}
    for key, beh in _FAULT_ROLES:
        count = _as_int(sc.faults, "faults", key, 0)
        _check(count >= 0, "faults", key, count, "at least 0")
        for _ in range(count):
            k = next(free, None)
            if k is None:
                raise ScenarioError("more faulty nodes than nodes")
            behaviors[k] = beh
    return FaultProfile(behaviors=behaviors, drop_prob=drop_prob)


ConsensusSetup = NamedTuple("ConsensusSetup", [
    ("node_ids", List[str]), ("profile", FaultProfile), ("rounds", int),
    ("delta1", float), ("delta2", float)])


def build_credit_steps(sc: Scenario) -> Tuple[float, float]:
    """The [consensus] credit steps (delta1, delta2), the only keys `full` reads."""
    # Credits live in [0, 1], so a step outside it is no credit step.
    delta1 = _as_float(sc.consensus, "consensus", "delta1", DELTA_LEADER)
    _check(0.0 <= delta1 <= 1.0, "consensus", "delta1", delta1, "0 to 1")
    delta2 = _as_float(sc.consensus, "consensus", "delta2", DELTA_VOTER)
    _check(0.0 <= delta2 <= 1.0, "consensus", "delta2", delta2, "0 to 1")
    return delta1, delta2


def build_consensus(sc: Scenario) -> ConsensusSetup:
    n = _as_int(sc.consensus, "consensus", "n_nodes", 20)
    _check(n >= 4, "consensus", "n_nodes", n, "at least 4 to tolerate a fault")
    _check(n <= MAX_GROUP, "consensus", "n_nodes", n, f"at most {MAX_GROUP}")
    rounds = _as_int(sc.consensus, "consensus", "rounds", 1000)
    _check(1 <= rounds <= MAX_ROUNDS, "consensus", "rounds", rounds,
           f"1 to {MAX_ROUNDS}")
    delta1, delta2 = build_credit_steps(sc)
    ids = [f"n{i:02d}" for i in range(n)]
    return ConsensusSetup(
        node_ids=ids,
        profile=build_faults(sc, ids),
        rounds=rounds,
        delta1=delta1,
        delta2=delta2,
    )


def read_seed(sc: Scenario) -> int:
    """The [run] seed (default 0), read apart from every other value."""
    return _as_int(sc.run, "run", "seed", 0)


# The [run] values that shape a full run.
RunSetup = NamedTuple("RunSetup", [("days", int), ("cities", int), ("funding", float)])


def build_run(sc: Scenario) -> RunSetup:
    run = RunSetup(
        days=_as_int(sc.run, "run", "days", 3),
        cities=_as_int(sc.run, "run", "cities", 2),
        funding=_as_float(sc.run, "run", "funding", 10000.0),
    )
    _check(run.days >= 1, "run", "days", run.days, "at least 1")
    _check(run.cities >= 2, "run", "cities", run.cities,
           "at least 2 cities (4 aggregators)")
    _check(run.funding > 0.0, "run", "funding", run.funding, "a positive amount")
    # The deposits must add up to a finite total, or the drift audit reads NaN.
    aggs = 2 * run.cities
    _check(aggs <= sys.float_info.max and math.isfinite(run.funding * aggs),
           "run", "funding", run.funding,
           f"a total over the {aggs} aggregators that is finite")
    _check(aggs <= MAX_GROUP, "run", "cities", run.cities,
           f"at most {MAX_GROUP // 2} cities ({MAX_GROUP} aggregators)")
    _check(run.days * run.cities <= MAX_CITY_DAYS, "run", "days", run.days,
           f"at most {MAX_CITY_DAYS // run.cities} for {run.cities} cities "
           f"(days x cities at most {MAX_CITY_DAYS})")
    return run
