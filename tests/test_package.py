import qucurve


def test_every_public_name_resolves():
    assert [name for name in qucurve.__all__ if not hasattr(qucurve, name)] == []
    assert len(set(qucurve.__all__)) == len(qucurve.__all__)
