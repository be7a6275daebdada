"""Free-list allocator + transactional metadata service (leak fixes)."""

import pytest

from repro.dfs.allocator import AllocError, ExtentAllocator, FreeList
from repro.dfs.capability import CapabilityAuthority
from repro.dfs.layout import EcSpec, Extent, FileLayout, ReplicationSpec
from repro.dfs.metadata import MetadataError, MetadataService


def make_md(n=4, cap=10_000, **kw):
    return MetadataService(
        storage_nodes=[f"sn{i}" for i in range(n)],
        node_capacity=cap,
        authority=CapabilityAuthority(key=b"k"),
        **kw,
    )


# ------------------------------------------------------------------ FreeList
def test_freelist_alloc_free_roundtrip():
    fl = FreeList(1000)
    a = fl.alloc(300)
    b = fl.alloc(300)
    assert (a, b) == (0, 300)
    assert fl.free_bytes == 400
    fl.free(a, 300)
    fl.check()
    # first fit reuses the hole at the front
    assert fl.alloc(300) == 0
    fl.free(0, 300)
    fl.free(b, 300)
    fl.check()
    # everything coalesced back into one hole
    assert fl.largest_hole() == 1000
    assert fl.used == 0


def test_freelist_coalesces_both_neighbours():
    fl = FreeList(900)
    a, b, c = fl.alloc(300), fl.alloc(300), fl.alloc(300)
    fl.free(a, 300)
    fl.free(c, 300)
    fl.free(b, 300)  # middle free must merge with both sides
    fl.check()
    assert fl.largest_hole() == 900


def test_freelist_detects_double_free():
    fl = FreeList(1000)
    a = fl.alloc(100)
    fl.free(a, 100)
    with pytest.raises(AllocError):
        fl.free(a, 100)
    with pytest.raises(AllocError):
        fl.free(900, 200)  # past capacity


def test_freelist_exhaustion_reports_fragmentation():
    fl = FreeList(1000)
    a = fl.alloc(400)
    fl.alloc(400)
    fl.free(a, 400)
    # 600 B free but the largest hole is only 400 B
    assert fl.free_bytes == 600
    assert not fl.can_fit(500)
    with pytest.raises(AllocError):
        fl.alloc(500)


def test_extent_allocator_per_node_accounting():
    ea = ExtentAllocator(1000, ["a", "b"])
    ea.alloc("a", 400)
    off = ea.alloc("b", 250)
    assert ea.used_bytes("a") == 400
    assert ea.allocated_bytes() == 650
    ea.free("b", off, 250)
    assert ea.allocated_bytes() == 400
    ea.check()
    with pytest.raises(AllocError):
        ea.alloc("nope", 10)


# ------------------------------------------------- delete/update free extents
def test_delete_returns_storage():
    """The seed's bump cursor leaked every deleted object's extents."""
    md = make_md(n=2, cap=1000)
    # churn 20x the total capacity through create/delete
    for i in range(40):
        md.create(f"/x{i}", size=900)
        md.delete(f"/x{i}")
    assert md.allocated_bytes() == 0
    md.allocator.check()


def test_update_layout_frees_replaced_extents():
    md = make_md(n=3, cap=1000)
    lay = md.create("/f", size=600, replication=ReplicationSpec(k=2))
    before = md.allocated_bytes()
    # simulate recovery: slot 1 moves to a fresh extent
    new_ext = md.allocate_extent("sn2", 600)
    md.update_layout(
        "/f",
        FileLayout(
            object_id=lay.object_id,
            size=lay.size,
            extents=(lay.extents[0], new_ext),
            resiliency="replication",
            replication=lay.replication,
        ),
    )
    # the dead extent came back to the pool: no net growth
    assert md.allocated_bytes() == before
    assert md.allocated_bytes() == md.live_layout_bytes()


def test_churn_invariant_allocated_equals_live():
    """allocated bytes == live layout bytes after arbitrary churn."""
    md = make_md(n=6, cap=100_000)
    alive = []
    for i in range(30):
        kind = i % 3
        if kind == 0:
            md.create(f"/r{i}", size=4_000, replication=ReplicationSpec(k=3))
        elif kind == 1:
            md.create(f"/e{i}", size=6_000, ec=EcSpec(k=4, m=2))
        else:
            md.create(f"/p{i}", size=2_500)
        alive.append(i)
        if i % 2 == 1:  # delete every other object as we go
            j = alive.pop(0)
            md.delete(f"/{'rep'[j % 3]}{j}")
    assert md.allocated_bytes() == md.live_layout_bytes()
    md.allocator.check()


# ------------------------------------------------------- transactional create
def test_create_rolls_back_on_midway_failure(monkeypatch):
    md = make_md(n=3, cap=10_000)
    cursor0 = md.policy.snapshot()
    real = md._alloc_on
    calls = {"n": 0}

    def flaky(node, length):
        calls["n"] += 1
        if calls["n"] == 2:  # second replica's allocation explodes
            raise MetadataError("injected")
        return real(node, length)

    monkeypatch.setattr(md, "_alloc_on", flaky)
    with pytest.raises(MetadataError):
        md.create("/f", size=1_000, replication=ReplicationSpec(k=3))
    monkeypatch.undo()
    # no trace: no bytes held, no object registered, cursor restored
    assert md.allocated_bytes() == 0
    assert not md.exists("/f")
    assert md.policy.snapshot() == cursor0
    # and the next create starts from the same rotation the seed would
    lay = md.create("/f", size=1_000)
    assert lay.extents[0].node == "sn0"


def test_failed_create_leaves_no_partial_object():
    md = make_md(n=4, cap=1000)
    md.create("/big", size=900)  # fills sn0
    # k=4 needs 4 eligible nodes with 900 B free; sn0 can't fit
    with pytest.raises(MetadataError):
        md.create("/r", size=900, replication=ReplicationSpec(k=4))
    assert md.allocated_bytes() == md.live_layout_bytes() == 900


def test_bad_free_is_detected():
    md = make_md(n=1, cap=1000)
    with pytest.raises(MetadataError):
        md.free_extent(Extent(node="sn0", addr=500, length=100))


# ------------------------------------------------------------ placement fixes
def test_capacity_aware_placement_avoids_full_nodes():
    md = make_md(n=3, cap=1000, placement="capacity")
    md.create("/fill", size=800)  # lands on sn0 (all equal, index tie-break)
    assert md.lookup("/fill").extents[0].node == "sn0"
    # the seed's capacity-blind rotation would now try sn1, sn2, sn0
    # and explode on sn0's third extent; capacity-aware never does
    for i in range(3):
        md.create(f"/f{i}", size=500)
    nodes = [md.lookup(f"/f{i}").extents[0].node for i in range(3)]
    assert "sn0" not in nodes
    assert md.allocated_bytes() == md.live_layout_bytes()


def test_roundrobin_skips_full_nodes_instead_of_failing():
    md = make_md(n=3, cap=1000)  # default roundrobin
    md.create("/a", size=900)  # sn0 nearly full
    # 500 B extents can only fit on sn1/sn2; rotation must skip sn0
    for i in range(4):
        lay = md.create(f"/b{i}", size=500)
        assert lay.extents[0].node != "sn0"


def test_dead_nodes_excluded_from_placement():
    md = make_md(n=3, cap=10_000)
    md.mark_dead("sn1")
    for i in range(4):
        lay = md.create(f"/f{i}", size=100, replication=ReplicationSpec(k=2))
        assert all(e.node != "sn1" for e in lay.extents)
    with pytest.raises(MetadataError):
        md.allocate_extent("sn1", 100)
    with pytest.raises(MetadataError):  # only 2 alive, k=3 impossible
        md.create("/r", size=100, replication=ReplicationSpec(k=3))
    md.mark_alive("sn1")
    md.create("/r", size=100, replication=ReplicationSpec(k=3))


def test_allocate_auto_respects_exclusions():
    md = make_md(n=3, cap=10_000)
    ext = md.allocate_auto(500, exclude=["sn0", "sn1"])
    assert ext.node == "sn2"
    md.free_extent(ext)
    assert md.allocated_bytes() == 0


# ------------------------------------------- scan-free can_fit, reused views
def test_freelist_largest_hole_tracks_churn():
    """``can_fit``/``largest_hole`` read a length index; it must agree
    with a scan of the holes after every alloc and free."""
    import random

    rng = random.Random(5)
    fl = FreeList(50_000)
    live = []
    for _ in range(600):
        if live and (rng.random() < 0.45 or not fl.can_fit(64)):
            addr, ln = live.pop(rng.randrange(len(live)))
            fl.free(addr, ln)
        else:
            ln = rng.choice([64, 100, 512, 1000, 4096])
            if fl.can_fit(ln):
                live.append((fl.alloc(ln), ln))
            else:
                with pytest.raises(AllocError):
                    fl.alloc(ln)
        fl.check()
        scan = max((ln for _, ln in fl._holes), default=0)
        assert fl.largest_hole() == scan
        for probe in (1, 64, 1000, 4096, scan, scan + 1):
            assert fl.can_fit(probe) == any(ln >= probe for _, ln in fl._holes)


def _fresh_views(md, length, exclude):
    """The views as built from scratch, with no reuse."""
    from repro.dfs.placement import NodeView

    out = []
    for i, n in enumerate(md.nodes):
        if n in exclude or not md.is_alive(n):
            continue
        if not any(ln >= length for _, ln in md.allocator.free_list(n)._holes):
            continue
        out.append(NodeView(name=n, index=i, free_bytes=md.allocator.free_bytes(n),
                            domain=md.domains.get(n, i)))
    return out


@pytest.mark.parametrize("placement", ["roundrobin", "capacity", "domain"])
def test_reused_views_pick_like_fresh_views(placement):
    """Under create/delete/mark_dead/mark_alive (and domain) churn, the
    reused views equal freshly built ones and every policy picks the
    same nodes."""
    import random

    rng = random.Random(11)
    domains = {f"sn{i}": i // 2 for i in range(6)}
    md = make_md(n=6, cap=40_000, placement=placement, failure_domains=domains)
    paths = []
    for step in range(400):
        r = rng.random()
        if r < 0.5:
            path = f"/o{step}"
            size = rng.choice([500, 2_000, 7_000])
            k = rng.choice([1, 2, 3])
            try:
                md.create(path, size,
                          replication=ReplicationSpec(k=k) if k > 1 else None)
                paths.append(path)
            except MetadataError:
                pass
        elif r < 0.78 and paths:
            md.delete(paths.pop(rng.randrange(len(paths))))
        elif r < 0.88:
            md.mark_dead(f"sn{rng.randrange(6)}")
        elif r < 0.96:
            md.mark_alive(f"sn{rng.randrange(6)}")
        else:  # a node moves rack
            md.domains[f"sn{rng.randrange(6)}"] = rng.randrange(4)
        for length in (500, 7_000):
            for exclude in ((), ("sn1",), ("sn0", "sn3")):
                reused = md._views(length, exclude)
                fresh = _fresh_views(md, length, exclude)
                assert reused == fresh
                for n in range(1, len(fresh) + 1):
                    token = md.policy.snapshot()
                    got = md.policy.pick(reused, n)
                    md.policy.restore(token)
                    assert got == md.policy.pick(fresh, n)
                    md.policy.restore(token)
    assert md.allocated_bytes() == md.live_layout_bytes()
    md.allocator.check()
