import avoidrec


def test_every_exported_name_resolves():
    missing = [name for name in avoidrec.__all__ if not hasattr(avoidrec, name)]
    assert missing == []
    assert len(set(avoidrec.__all__)) == len(avoidrec.__all__)
