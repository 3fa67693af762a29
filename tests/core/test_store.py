"""Tests for the versioned object store."""

from repro.core import ObjectStore


class TestObjectStore:
    def test_read_of_unwritten_object_is_initial(self):
        store = ObjectStore()
        version = store.read(1)
        assert version.writer_id is None

    def test_latest_read_by_default(self):
        store = ObjectStore()
        store.install(1, (1.0, 0), writer_id=10, now=1.0)
        store.install(1, (2.0, 1), writer_id=20, now=2.0)
        assert store.read(1).writer_id == 20

    def test_read_with_key_selects_version(self):
        store = ObjectStore()
        store.install(1, (1.0, 0), writer_id=10, now=1.0)
        store.install(1, (3.0, 1), writer_id=30, now=3.0)
        assert store.read(1, reader_key=(2.0, 99)).writer_id == 10
        assert store.read(1, reader_key=(3.5, 0)).writer_id == 30
        assert store.read(1, reader_key=(0.5, 0)).writer_id is None

    def test_out_of_order_install_sorted(self):
        store = ObjectStore()
        store.install(1, (5.0, 0), writer_id=50, now=5.0)
        store.install(1, (2.0, 0), writer_id=20, now=6.0)
        assert store.read(1).writer_id == 50
        assert store.read(1, reader_key=(3.0, 0)).writer_id == 20

    def test_final_state(self):
        store = ObjectStore()
        store.install(1, (1.0, 0), writer_id=10, now=1.0)
        store.install(2, (2.0, 0), writer_id=20, now=2.0)
        store.install(1, (3.0, 0), writer_id=30, now=3.0)
        assert store.final_state() == {1: 30, 2: 20}
        assert store.installs == 3
