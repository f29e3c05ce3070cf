from . import _zipcache  # noqa: F401  (installs the zip-import cache fix)
