"""Each package's ``__all__`` lists exactly its public names, so a deleted or
added name cannot be left out of (or linger in) the list."""

import types

import pytest

import castlab
import castlab.llm


@pytest.mark.parametrize("package", [castlab, castlab.llm], ids=lambda p: p.__name__)
def test_all_lists_every_public_name_but_the_submodules(package):
    public = [name for name, value in vars(package).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(name for name in package.__all__ if name != "__version__") == sorted(public)
