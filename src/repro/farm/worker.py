"""The chunk decoder of the analysis pass, under the name perfbench wraps.

:func:`repro.farm.engine.analyze_file` decodes every chunk through
``repro.farm.worker.decode_chunk_columns``, so perfbench's traced
``batch`` run, which wraps this module global, counts the pass's one
decode, for both metrics, under its ``binfmt.decode`` layer.
"""

from .binfmt import decode_chunk_columns  # perfbench batch.py _install wraps this name

__all__ = ["decode_chunk_columns"]
