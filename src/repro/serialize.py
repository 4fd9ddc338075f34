"""JSON round-tripping helpers for the stats dataclasses.

The simlab result cache and the harness ``--json`` mode both need the
stats objects (:class:`~repro.uarch.proc.ProcStats`,
:class:`~repro.baseline.ooo.BaselineStats`,
:class:`~repro.chip.ChipStats`) to survive a trip through ``json.dumps``
and back.  All of them are flat dataclasses of scalars (ChipStats nests a
list of ProcStats and handles that field itself), so two tiny generic
helpers cover everything:

* :func:`dataclass_to_dict` — field name -> value, shallow.
* :func:`dataclass_from_dict` — rebuild from a dict, ignoring unknown
  keys (forward compatibility: an old cache record deserializes against
  a newer dataclass, missing fields keep their defaults).
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Dict, Type, TypeVar

T = TypeVar("T")


def dataclass_to_dict(obj: Any) -> Dict[str, Any]:
    """Shallow field-name -> value dict of a dataclass instance."""
    if not is_dataclass(obj):
        raise TypeError(f"not a dataclass instance: {obj!r}")
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def dataclass_from_dict(cls: Type[T], data: Dict[str, Any]) -> T:
    """Rebuild ``cls`` from ``data``, ignoring keys ``cls`` doesn't have.

    Missing fields fall back to the dataclass defaults, so records written
    by older code still load after new stats counters are added.
    """
    if not is_dataclass(cls):
        raise TypeError(f"not a dataclass: {cls!r}")
    known = {f.name for f in fields(cls) if f.init}
    return cls(**{k: v for k, v in data.items() if k in known})
