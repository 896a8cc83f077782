"""Set-up for the Python functions that Spark runs as tasks.

pyspark reuses each Python worker across tasks and calls
``importlib.invalidate_caches()`` before every one. On CPython 3.11 that
makes every ``zipimporter`` cached in ``sys.path_importer_cache`` re-read
its whole archive directory: one importer per package directory of
``pyspark.zip`` and py4j's zip, plus the Spark jar on the workers' path,
about 27k entries and 0.2–0.4 s per task with four tasks at once on 4
cores.
"""
from __future__ import annotations

import sys
import zipimport


def drop_zip_importers() -> None:
    """Forget every cached ``zipimporter``; the first statement of each Spark
    task function. The next task's ``invalidate_caches()`` then has no zip
    directory to re-read, and an import that needs a zip makes its importer
    again (one read), so every import resolves as before."""
    for key, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            sys.path_importer_cache.pop(key, None)
