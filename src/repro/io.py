"""Serialization of configurations and DSE results.

Design points chosen by an expensive exploration should be storable:
the CLI's ``dse`` command can persist its ranked results, deployment
code can pin a configuration in version control, and experiments can be
replayed.  Everything round-trips through plain JSON-compatible dicts —
no pickling, so files are diffable and forward-auditable.

Device descriptions are *not* serialized wholesale: a config references
its device by name and is re-attached to the library's known devices on
load (currently the VCK190); configs built on ad-hoc experimental
devices refuse to serialize rather than silently losing budget data.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.core.config import HeteroSVDConfig
from repro.core.dse import DesignPoint
from repro.core.power import PowerEstimate
from repro.core.resources import ResourceUsage
from repro.errors import ConfigurationError
from repro.versal.device import VCK190

#: Devices a serialized config may reference.
KNOWN_DEVICES = {VCK190.name: VCK190}

_CONFIG_FIELDS = (
    "m", "n", "p_eng", "p_task", "pl_frequency_hz", "precision",
    "fixed_iterations", "use_codesign", "arithmetic",
)


def config_to_dict(config: HeteroSVDConfig) -> Dict:
    """JSON-compatible representation of a configuration.

    Raises:
        ConfigurationError: when the config uses a device this library
            cannot re-attach on load.
    """
    if config.device.name not in KNOWN_DEVICES:
        raise ConfigurationError(
            f"cannot serialize config on unknown device "
            f"{config.device.name!r}; register it in repro.io.KNOWN_DEVICES"
        )
    data = {field: getattr(config, field) for field in _CONFIG_FIELDS}
    data["device"] = config.device.name
    return data


def config_from_dict(data: Dict) -> HeteroSVDConfig:
    """Rebuild a configuration from :func:`config_to_dict` output.

    Raises:
        ConfigurationError: for missing fields or unknown devices.
    """
    missing = [f for f in (*_CONFIG_FIELDS, "device") if f not in data]
    if missing:
        raise ConfigurationError(f"config dict missing fields: {missing}")
    device_name = data["device"]
    if device_name not in KNOWN_DEVICES:
        raise ConfigurationError(f"unknown device {device_name!r}")
    kwargs = {field: data[field] for field in _CONFIG_FIELDS}
    return HeteroSVDConfig(device=KNOWN_DEVICES[device_name], **kwargs)


def design_point_to_dict(point: DesignPoint) -> Dict:
    """JSON-compatible representation of an evaluated design point."""
    return {
        "config": config_to_dict(point.config),
        "latency": point.latency,
        "throughput": point.throughput,
        "energy_efficiency": point.energy_efficiency,
        "batch": point.batch,
        "power": {
            "static": point.power.static,
            "pl_dynamic": point.power.pl_dynamic,
            "aie": point.power.aie,
            "uram": point.power.uram,
            "bram": point.power.bram,
            "total": point.power.total,
        },
        "resources": {
            "orth": point.usage.orth,
            "norm": point.usage.norm,
            "mem": point.usage.mem,
            "aie": point.usage.aie,
            "plio": point.usage.plio,
            "bram": point.usage.bram,
            "uram": point.usage.uram,
            "luts": point.usage.luts,
        },
    }


def design_point_from_dict(data: Dict) -> DesignPoint:
    """Rebuild an evaluated design point from
    :func:`design_point_to_dict` output.

    The round trip is exact: floats survive JSON unchanged (shortest
    round-trip encoding), so the rebuilt point compares equal to the
    original — which is what lets :mod:`repro.exec.cache` serve disk
    hits interchangeably with fresh evaluations.

    Raises:
        ConfigurationError: for missing fields or unknown devices.
    """
    try:
        config = config_from_dict(data["config"])
        power_data = data["power"]
        resources = data["resources"]
        power = PowerEstimate(
            static=power_data["static"],
            pl_dynamic=power_data["pl_dynamic"],
            aie=power_data["aie"],
            uram=power_data["uram"],
            bram=power_data["bram"],
        )
        usage = ResourceUsage(
            orth=resources["orth"],
            norm=resources["norm"],
            mem=resources["mem"],
            plio=resources["plio"],
            bram=resources["bram"],
            uram=resources["uram"],
            luts=resources["luts"],
        )
        return DesignPoint(
            config=config,
            latency=data["latency"],
            throughput=data["throughput"],
            power=power,
            energy_efficiency=data["energy_efficiency"],
            usage=usage,
            batch=data["batch"],
        )
    except KeyError as exc:
        raise ConfigurationError(
            f"design point dict missing field {exc}"
        ) from exc


def save_design_points(
    points: List[DesignPoint], path: Union[str, Path]
) -> None:
    """Write ranked design points to a JSON file."""
    payload = {
        "format": "heterosvd-dse-results",
        "version": 1,
        "points": [design_point_to_dict(p) for p in points],
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_configs(path: Union[str, Path]) -> List[HeteroSVDConfig]:
    """Load the configurations of a saved DSE result file.

    Full :class:`DesignPoint` objects are not reconstructed — metrics
    can be re-derived from the configs, which is also a freshness
    guarantee (a stale file cannot smuggle outdated numbers).

    Raises:
        ConfigurationError: for unreadable or wrong-format files.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read DSE results: {exc}") from exc
    if payload.get("format") != "heterosvd-dse-results":
        raise ConfigurationError(
            f"{path} is not a heterosvd DSE results file"
        )
    return [config_from_dict(p["config"]) for p in payload["points"]]


def save_config(config: HeteroSVDConfig, path: Union[str, Path]) -> None:
    """Write one configuration to a JSON file."""
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2))


def load_config(path: Union[str, Path]) -> HeteroSVDConfig:
    """Load one configuration from a JSON file."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config: {exc}") from exc
    return config_from_dict(data)
