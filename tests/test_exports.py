"""The package's hand-kept export list stays true to its imports."""

import framesel


def test_all_names_resolve_once_and_star_import_binds_them():
    assert [name for name in framesel.__all__ if not hasattr(framesel, name)] == []
    assert len(set(framesel.__all__)) == len(framesel.__all__)
    namespace = {}
    exec("from framesel import *", namespace)
    assert set(framesel.__all__) <= namespace.keys()


def test_cross_checks_that_only_tests_call_are_not_exported():
    # they live in tests/oracles.py
    for name in ("composed_resolvent_inverse", "jacobi_eigh"):
        assert name not in framesel.__all__
        assert not hasattr(framesel, name) and not hasattr(framesel.hermitian, name)


def test_folded_helpers_are_gone():
    # the Hermitian defect is measured inside require_hermitian, which reports it in its ValueError
    assert "hermitian_defect" not in framesel.__all__
    assert not hasattr(framesel, "hermitian_defect") and not hasattr(framesel.hermitian, "hermitian_defect")


def test_tracer_patched_helpers_live_only_in_their_modules():
    # the benchmark tracer patches them in framesel.selector, which imports them from framesel.hermitian
    for name in ("outer_product_accumulate", "resolvent_quadratic_form"):
        assert name not in framesel.__all__ and not hasattr(framesel, name)
        assert callable(getattr(framesel.hermitian, name))
        assert getattr(framesel.selector, name) is getattr(framesel.hermitian, name)


def test_members_only_tests_read_are_gone():
    # tests read len(...) of the arrays instead, and tests/oracles.py reconstructs an eigensystem
    assert not hasattr(framesel.EigenSystem, "dim") and not hasattr(framesel.EigenSystem, "reconstruct")
    assert not hasattr(framesel.DiagonalSelector, "size")
    assert not hasattr(framesel.KatzSystem, "function_sum_values")
    assert not hasattr(framesel.KatzSystem, "point_members")  # tests decode the masks themselves
    # frame_to_dict reads the stored C-contiguous complex128 array's doubles directly
    assert not hasattr(framesel.frames, "_encode_complex_rows")
