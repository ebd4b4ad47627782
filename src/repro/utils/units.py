"""Unit constants.

The platform simulator works in SI base units: seconds, bytes, joules,
hertz. These constants keep configuration code readable.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

MHZ = 1_000_000.0
GHZ = 1_000_000_000.0

US = 1e-6
MS = 1e-3
NS = 1e-9
