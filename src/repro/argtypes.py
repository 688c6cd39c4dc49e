"""``argparse`` value types shared by every ``python -m repro`` parser."""

from __future__ import annotations

import argparse

__all__ = ["positive_int", "positive_float"]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("must be a positive number")
    return value
