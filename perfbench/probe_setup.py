"""One set-up sample: import the package and stand up every assignment.

Reads ``[[schema, target_sql], ...]`` as JSON on stdin and prints the
seconds from before ``import repro`` to the last ``AssignmentSession``
built (catalogs included).  ``run.py`` starts this in a fresh
interpreter several times per run and reports the median as ``setup_s``.
"""

import json
import sys
import time


def main():
    targets = json.load(sys.stdin)
    start = time.perf_counter()
    from repro.corpus.schemas import bundled_sources
    from repro.service.session import AssignmentSession

    catalogs = {}
    for schema, sql in targets:
        if schema not in catalogs:
            (source,) = bundled_sources([schema])
            catalogs[schema] = source.catalog()
        AssignmentSession(catalogs[schema], sql)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
