"""Synthetic transfer-corpus generation from archetype templates.

Templates are data (see data/archetypes.json): each archetype lists its core
edges as (source slot, target slot, token category) triples, where a slot is
"ego", "null", "address:<name>" or "contract:<name>". Named slots resolve to
pooled counterpart accounts; noise edges always attach a fresh counterpart so
they can only add features to a transaction, never change the core ones.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

from .ingest import (CATEGORIES, GROUP_ALIASES, InputError, METHOD_GROUPS, Param, _fields, _schema,
                     _strings)

NULL_ADDRESS = "0x" + "0" * 40
DEFAULT_NOISE = 0.05
PACKAGED_ARCHETYPES = Path(__file__).parent / "data" / "archetypes.json"
_SLOT_KINDS = ("ego", "null", "address", "contract")
_CONFIG_FIELDS = {"archetypes": Param(list, what="a non-empty list", ok=bool),
                  "noise": Param(float, DEFAULT_NOISE, "a number >= 0 and < 1", lambda v: 0 <= v < 1)}
_ARCHETYPE_FIELDS = {"name": Param(str, choices=METHOD_GROUPS),
                     "table2_count": Param(int, 1, "an integer >= 0", lambda v: v >= 0),
                     "edges": Param(list, what="a non-empty list of [slot, slot, token category]",
                                    ok=lambda v: v and all(_strings(e, 3) and e[2] in CATEGORIES
                                                           for e in v))}
_MIX_FIELDS = {"name": Param(str, ""), "weight": Param(float, 1.0, "a number >= 0", lambda v: v >= 0),
               "methods": Param(dict, what="an object of numbers >= 0, not all 0", ok=lambda v: all(
                   type(w) in (int, float) and w >= 0 for w in v.values()) and sum(v.values()) > 0)}


@dataclass
class Archetype:
    name: str
    table2_count: int
    edges: list[tuple[str, str, str]]

    def validate(self) -> None:
        for src, dst, _ in self.edges:
            for slot in (src, dst):
                kind = slot.split(":", 1)[0]
                if kind not in _SLOT_KINDS:
                    raise InputError(f"archetype {self.name}: bad slot {slot!r}")
            if "ego" not in (src.split(":")[0], dst.split(":")[0]):
                raise InputError(f"archetype {self.name}: edge {src}->{dst} does not touch the ego")
            if src == dst:
                raise InputError(f"archetype {self.name}: self-edge {src}->{dst}")


@dataclass
class SynthConfig:
    archetypes: list[Archetype]
    noise: float = DEFAULT_NOISE

    def archetype(self, name: str) -> Archetype:
        for arch in self.archetypes:
            if arch.name == name:
                return arch
        raise InputError(f"no archetype named {name!r}")


def load_config(path: Optional[str] = None) -> SynthConfig:
    with _schema("archetype config", path or PACKAGED_ARCHETYPES) as raw:
        config = _fields(raw, _CONFIG_FIELDS)
        archetypes = []
        for i, entry in enumerate(config["archetypes"]):
            fields = _fields(entry, _ARCHETYPE_FIELDS, f"archetype {i}")
            arch = Archetype(fields["name"], fields["table2_count"], [*map(tuple, fields["edges"])])
            arch.validate()
            archetypes.append(arch)
    return SynthConfig(archetypes=archetypes, noise=config["noise"])


def _method_names_by_group() -> dict[str, list[str]]:
    """Raw method names per retained group, from the packaged mapping."""
    text = resources.files("motifscope.data").joinpath("method_groups.json").read_text("utf-8")
    by_group: dict[str, list[str]] = {}
    for raw_name, group in json.loads(text).items():
        resolved = GROUP_ALIASES.get(group, group)
        if resolved in METHOD_GROUPS:
            by_group.setdefault(resolved, []).append(raw_name)
    return {group: sorted(names) for group, names in by_group.items()}


@dataclass
class Mix:
    """An account activity profile: a distribution over method groups."""

    name: str
    weight: float
    methods: dict[str, float]


def load_mixes(path: str) -> list[Mix]:
    with _schema("mixes file", path) as entries:
        mixes = [Mix(**_fields(entry, _MIX_FIELDS, f"mix {i}")) for i, entry in enumerate(entries)]
    if not mixes:
        raise InputError(f"mixes file {path} defines no mixes")
    return mixes


class _Sampler:
    """Cumulative-weight sampler over a fixed item order."""

    def __init__(self, items: list, weights: list[float]):
        total = float(sum(weights))
        if total <= 0:
            raise InputError("weights must sum to a positive value")
        self.items = items
        self.cum = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self.cum.append(acc)
        self.cum[-1] = 1.0

    def draw(self, rng: random.Random):
        return self.items[bisect.bisect_left(self.cum, rng.random())]


@dataclass
class SynthResult:
    out_dir: Path
    n_transactions: int
    n_transfers: int
    group_counts: dict[str, int] = field(default_factory=dict)


def generate(
    config: SynthConfig,
    n_transactions: int,
    seed: int,
    out_dir,
    skew: str = "table2",
    n_egos: Optional[int] = None,
    pool_size: Optional[int] = None,
    mixes: Optional[list[Mix]] = None,
) -> SynthResult:
    """Write transfers.csv / methods.csv / tokens.json / accounts.json.

    Deterministic for a fixed seed: one RNG drives every choice in transaction
    order. With mixes, each ego account is assigned an activity mix and its
    transactions draw methods from that mix (account_mixes.json records the
    ground truth); otherwise archetypes are drawn globally by skew weight.
    """
    if skew not in ("table2", "uniform"):
        raise InputError(f"unknown skew {skew!r}")
    if n_transactions < 0:
        raise InputError("n_transactions must be >= 0")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)

    if n_egos is None:
        n_egos = max(1, min(64, n_transactions // 50)) if n_transactions else 0
    if pool_size is None:
        pool_size = max(8, min(1000, n_transactions // 10)) if n_transactions else 0
    if n_transactions > 0 and (n_egos < 1 or pool_size < 1):
        raise InputError("generating transactions requires at least one ego and pool account")
    egos = [f"0xe{i:039d}" for i in range(n_egos)]
    pool_addresses = [f"0xa{i:039d}" for i in range(pool_size)]
    pool_contracts = [f"0xc{i:039d}" for i in range(pool_size)]

    weights = [float(a.table2_count) if skew == "table2" else 1.0 for a in config.archetypes]
    arch_sampler = _Sampler(config.archetypes, weights) if config.archetypes else None
    mix_of_ego: dict[str, str] = {}
    ego_samplers: dict[str, _Sampler] = {}
    if mixes is not None:
        mix_sampler = _Sampler(mixes, [m.weight for m in mixes])
        per_mix = {
            m.name: _Sampler([config.archetype(g) for g in sorted(m.methods)], [m.methods[g] for g in sorted(m.methods)])
            for m in mixes
        }
        for ego in egos:
            mix = mix_sampler.draw(rng)
            mix_of_ego[ego] = mix.name
            ego_samplers[ego] = per_mix[mix.name]

    method_names = _method_names_by_group()
    categories = list(CATEGORIES)
    token_contracts = {cat: f"0xf{i:039d}" for i, cat in enumerate(categories)}
    token_symbols = {cat: f"TK{i}" for i, cat in enumerate(categories)}

    transfer_lines = ["tx_hash,ego,from,to,token_contract,token_symbol,amount,block_number"]
    method_lines = ["tx_hash,raw_method"]
    group_counts: dict[str, int] = {}
    noise_accounts: list[tuple[str, str]] = []  # (address, kind)
    n_transfers = 0
    fresh_counter = 0
    for i in range(n_transactions):
        tx_hash = f"0x{i:064x}"
        block = i + 1
        ego = egos[rng.randrange(n_egos)]
        sampler = ego_samplers.get(ego, arch_sampler)
        arch = sampler.draw(rng)
        group_counts[arch.name] = group_counts.get(arch.name, 0) + 1
        raw_method = rng.choice(method_names[arch.name])
        method_lines.append(f"{tx_hash},{raw_method}")
        slot_cache: dict[str, str] = {}
        edges = []
        for src, dst, category in arch.edges:
            edges.append((_resolve_slot(src, ego, slot_cache, pool_addresses, pool_contracts, rng),
                          _resolve_slot(dst, ego, slot_cache, pool_addresses, pool_contracts, rng),
                          category))
        if config.noise > 0 and rng.random() < config.noise:
            # one extra edge to a fresh, never-reused counterpart
            kind = rng.choice(("address", "contract"))
            prefix = "b" if kind == "address" else "d"
            fresh = f"0x{prefix}{fresh_counter:039d}"
            fresh_counter += 1
            noise_accounts.append((fresh, kind))
            category = rng.choice(categories)
            if rng.random() < 0.5:
                edges.append((fresh, ego, category))
            else:
                edges.append((ego, fresh, category))
        for src, dst, category in edges:
            amount = f"{rng.uniform(0.1, 999.9):.6f}"
            transfer_lines.append(
                f"{tx_hash},{ego},{src},{dst},{token_contracts[category]},{token_symbols[category]},{amount},{block}"
            )
            n_transfers += 1

    (out / "transfers.csv").write_text("\n".join(transfer_lines) + "\n", encoding="utf-8")
    (out / "methods.csv").write_text("\n".join(method_lines) + "\n", encoding="utf-8")

    tokens = [
        {"contract": token_contracts[cat], "symbol": token_symbols[cat], "category": cat, "is_spam": False}
        for cat in categories
    ]
    (out / "tokens.json").write_text(
        json.dumps(tokens, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    accounts = [{"address": NULL_ADDRESS, "type": "null"}]
    accounts += [{"address": a, "type": "ego"} for a in egos]
    accounts += [{"address": a, "type": "address"} for a in pool_addresses]
    accounts += [{"address": a, "type": "contract"} for a in pool_contracts]
    accounts += [{"address": a, "type": kind} for a, kind in noise_accounts]
    (out / "accounts.json").write_text(
        json.dumps(accounts, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    if mixes is not None:
        (out / "account_mixes.json").write_text(
            json.dumps(mix_of_ego, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    return SynthResult(
        out_dir=out,
        n_transactions=n_transactions,
        n_transfers=n_transfers,
        group_counts=group_counts,
    )


def _resolve_slot(
    slot: str,
    ego: str,
    cache: dict[str, str],
    pool_addresses: list[str],
    pool_contracts: list[str],
    rng: random.Random,
) -> str:
    if slot == "ego":
        return ego
    if slot == "null":
        return NULL_ADDRESS
    if slot in cache:
        return cache[slot]
    kind = slot.split(":", 1)[0]
    pool = pool_addresses if kind == "address" else pool_contracts
    chosen = pool[rng.randrange(len(pool))]
    cache[slot] = chosen
    return chosen
