"""Service manifest loading (docs/manifest.md documents the schema).

A manifest is JSON with a ``services`` list whose entries mirror the
descriptor fields plus a ``handler`` name choosing one of the built-in
handler factories; arbitrary code is never loaded from a manifest.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import HandlerError, IoFailure
from .notes import DEFAULT_SEED, NotesHandler, load_seed_file
from .service import ServiceDescriptor, descriptor_from_dict
from .soap import TypedValue, XsdType


class EchoHandler:
    """Returns the first argument when its type matches the declared
    return type, else the return type's zero value."""

    _ZERO = {
        XsdType.STRING: "",
        XsdType.INT: 0,
        XsdType.DOUBLE: 0.0,
        XsdType.BOOLEAN: False,
    }

    def __init__(self, descriptor: ServiceDescriptor):
        self._returns = {m.name: m.returnType for m in descriptor.methods}

    def executeMethod(self, methodName: str, args) -> TypedValue:
        if methodName not in self._returns:
            raise HandlerError(f"unsupported method: {methodName}")
        want = self._returns[methodName]
        if args and args[0].xsdType is want:
            return args[0]
        return TypedValue.of(want, self._ZERO[want])


def _make_notes_handler(descriptor, options):
    seed = load_seed_file(options["seed"]) if "seed" in options else DEFAULT_SEED
    return NotesHandler(seed)


BUILTIN_HANDLERS = {
    "echo": lambda descriptor, options: EchoHandler(descriptor),
    "notes": _make_notes_handler,
}


def load_manifest(path):
    """Parse a manifest file into [(descriptor, handler), ...]."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise IoFailure(f"cannot read manifest {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ValueError(f"manifest {path} is not valid JSON: {e}") from None
    entries = data.get("services", []) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f'manifest {path} is not {{"services": [...]}}')
    services = []
    for i, item in enumerate(entries):
        where = f"manifest {path}: services[{i}]"
        try:
            descriptor = descriptor_from_dict(item)
        except KeyError as e:
            raise ValueError(f"{where} has no {e.args[0]!r} field") from None
        except (TypeError, AttributeError) as e:
            raise ValueError(f"{where} is malformed: {e}") from None
        handler_name = item.get("handler", "echo")
        factory = BUILTIN_HANDLERS.get(handler_name) if isinstance(handler_name, str) else None
        if factory is None:
            raise ValueError(f"{where}: unknown handler {handler_name!r}; "
                             f"built-ins: {sorted(BUILTIN_HANDLERS)}")
        options = item.get("handlerOptions", {})
        if not (isinstance(options, dict) and all(isinstance(v, str) for v in options.values())):
            raise ValueError(f"{where}: handlerOptions is not an object of strings")
        services.append((descriptor, factory(descriptor, options)))
    return services
