"""Scenario files: a small INI-like format driving the CLI.

Sections are [market], [communities] (repeatable, one per community),
[consensus], [faults] and [run]; entries are key = value lines, with
'#' comments.  configparser cannot express the repeated community
sections, hence the hand-rolled reader.  Parse errors carry the line
number and section so a typo is findable.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .consensus import CREDIT_UNIT, DELTA_LEADER, DELTA_VOTER, Behavior, FaultProfile
from .equilibrium import NeConfig
from .market import (ChpParams, CityMarket, CommunityParams, MarketError, PricePair,
                     shown)

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
        with open(path, encoding="utf-8-sig") as fh:
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
            f"section [{name}]: {key} = {shown(section[key])} is not a number") from None
    if not math.isfinite(v):
        raise ScenarioError(
            f"section [{name}]: {key} = {shown(section[key])} is not finite")
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
        raise ScenarioError(f"section [{name}]: {key} = {shown(value)} is out of "
                            f"range, need {need}")


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
        communities.append(CommunityParams(
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
    defaults = NeConfig()
    init: Union[str, PricePair] = sc.run.get("init", defaults.init).strip()
    parts = init.split()
    if len(parts) > 1:
        named = f"section [run]: init = {shown(init)}"
        if len(parts) != 2:
            raise ScenarioError(f"{named}: expected 'p_e p_h' or a keyword")
        try:
            p_e, p_h = float(parts[0]), float(parts[1])
        except ValueError:
            raise ScenarioError(f"{named}: prices must be numbers") from None
        try:
            init = PricePair(p_e, p_h)
        except MarketError as exc:
            raise ScenarioError(f"{named}: {exc}") from None
    max_iters = _as_int(sc.run, "run", "max_iters", defaults.max_iters)
    _check(max_iters <= MAX_ITERS, "run", "max_iters", max_iters, f"at most {MAX_ITERS}")
    return NeConfig(
        delta0=_as_float(sc.run, "run", "delta0", defaults.delta0),
        decay=_as_float(sc.run, "run", "decay", defaults.decay),
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


def build_faults(sc: Scenario, ids: List[str], most: int) -> FaultProfile:
    """The [faults] section on the ids that run, with at most `most` roles.

    Roles go onto ids in order, dissenters first; the remaining ids are
    honest.  A count below 0, or above what `most` leaves after the
    roles before it, raises ScenarioError naming its key.
    """
    drop_prob = _as_float(sc.faults, "faults", "drop_prob", 0.0)
    _check(0.0 <= drop_prob <= 1.0, "faults", "drop_prob", drop_prob, "0 to 1")
    roles: List[Behavior] = []
    for key, beh in _FAULT_ROLES:
        count = _as_int(sc.faults, "faults", key, 0)
        left = most - len(roles)
        _check(0 <= count <= left, "faults", key, count,
               f"0 to {left} (at most {most} faulty of {len(ids)} nodes)")
        roles += [beh] * count
    return FaultProfile(behaviors=dict(zip(ids, roles)), drop_prob=drop_prob)


ConsensusSetup = NamedTuple("ConsensusSetup", [
    ("node_ids", List[str]), ("profile", FaultProfile), ("rounds", int),
    ("delta1", int), ("delta2", int)])


def build_credit_steps(sc: Scenario) -> Tuple[int, int]:
    """The [consensus] credit steps (delta1, delta2) in micro-credits, the
    only keys `full` reads.  Each is read in credits: 0 to 1, on the 1e-6 grid."""
    steps = []
    for key, default in (("delta1", DELTA_LEADER), ("delta2", DELTA_VOTER)):
        v = _as_float(sc.consensus, "consensus", key, default / CREDIT_UNIT)
        _check(0.0 <= v <= 1.0, "consensus", key, v, "0 to 1")
        steps.append(round(v * CREDIT_UNIT))
        # Exact on the grid: both sides are the same decimal, rounded once.
        _check(steps[-1] / CREDIT_UNIT == v, "consensus", key, v, "a multiple of 1e-6")
    return steps[0], steps[1]


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
        profile=build_faults(sc, ids, n),
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
    aggs = 2 * run.cities
    _check(aggs <= MAX_GROUP, "run", "cities", run.cities,
           f"at most {MAX_GROUP // 2} cities ({MAX_GROUP} aggregators)")
    # The deposits must add up to a finite total, or the drift audit reads NaN.
    _check(math.isfinite(run.funding * aggs), "run", "funding", run.funding,
           f"a total over the {aggs} aggregators that is finite")
    _check(run.days * run.cities <= MAX_CITY_DAYS, "run", "days", run.days,
           f"at most {MAX_CITY_DAYS // run.cities} for {run.cities} cities "
           f"(days x cities at most {MAX_CITY_DAYS})")
    return run
