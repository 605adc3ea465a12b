"""The package re-exports its modules' ``__all__``, each name once."""

import srenyi


def test_all_has_no_duplicates():
    assert len(set(srenyi.__all__)) == len(srenyi.__all__)


def test_each_name_is_its_modules_object():
    for module in (srenyi.errors, srenyi.info, srenyi.means, srenyi.measures, srenyi.spectrum):
        for name in module.__all__:
            assert getattr(srenyi, name) is getattr(module, name), name
