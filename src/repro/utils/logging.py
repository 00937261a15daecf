"""Library logger helpers.

The library never configures the root logger; it only creates namespaced
children under ``"repro"`` so applications embedding it keep full control of
log routing.
"""

from __future__ import annotations

import logging
from typing import Optional

__all__ = ["get_logger"]

_ROOT_NAME = "repro"


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """Return the library logger or a child of it.

    ``get_logger("core.abft")`` returns the logger ``repro.core.abft``.
    """
    if not name:
        return logging.getLogger(_ROOT_NAME)
    if name.startswith(_ROOT_NAME):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")
