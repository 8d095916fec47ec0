"""Fleet scaling: the near-linear pkts/s claim and the workload shape."""

from repro.fleet import FLEET_SCHEMA, fleet_world_report, format_fleet_report
from repro.workload import CityScaleProfile, CityScaleWorkload


class TestFleetWorldReport:
    def test_modeled_speedup_is_near_linear(self):
        report = fleet_world_report(worker_counts=(1, 2, 4), quick=True)
        assert report["schema"] == FLEET_SCHEMA
        rows = {row["shards"]: row for row in report["rows"]}
        # The acceptance bar: >= 1.6x at 4 workers.  The modeled rate
        # is deterministic, so this asserts well above the bar.
        assert rows[4]["speedup_vs_1"] >= 1.6
        assert rows[2]["speedup_vs_1"] >= 1.3
        # Monotone in shard count.
        assert (rows[1]["modeled_pkts_per_sec"]
                < rows[2]["modeled_pkts_per_sec"]
                < rows[4]["modeled_pkts_per_sec"])

    def test_report_is_deterministic_in_modeled_terms(self):
        a = fleet_world_report(worker_counts=(1, 4), quick=True)
        b = fleet_world_report(worker_counts=(1, 4), quick=True)
        assert a == b

    def test_speedup_is_against_the_one_shard_row_only(self):
        report = fleet_world_report(worker_counts=(4, 1), quick=True,
                                    packets=2000)
        four, one = report["rows"]
        assert one["speedup_vs_1"] == 1.0
        assert four["speedup_vs_1"] == (four["modeled_pkts_per_sec"]
                                        / one["modeled_pkts_per_sec"])
        # No 1-shard row: no ratio is claimed, in JSON or in the table.
        report = fleet_world_report(worker_counts=(2, 4), quick=True,
                                    packets=2000)
        assert [row["speedup_vs_1"] for row in report["rows"]] == [None, None]
        table = format_fleet_report(report).splitlines()[2:]
        assert [line.split()[2] for line in table] == ["-", "-"]

    def test_format_renders_every_row(self):
        report = fleet_world_report(worker_counts=(1, 2), quick=True,
                                    packets=2000)
        text = format_fleet_report(report)
        assert "modeled pkts/s" in text
        assert text.count("\n") >= 3


class TestCityScaleWorkload:
    def test_deterministic_stream(self):
        profile = CityScaleProfile(total_flows=3000, concurrency=200, seed=11)
        first = [repr(p) for p, _ in CityScaleWorkload(profile).packets(2000)]
        second = [repr(p) for p, _ in CityScaleWorkload(profile).packets(2000)]
        assert first == second

    def test_population_mix_tracks_the_profile(self):
        profile = CityScaleProfile(
            total_flows=50_000, concurrency=1000,
            elephant_fraction=0.05, udp_fraction=0.2, seed=3,
        )
        workload = CityScaleWorkload(profile)
        udp = tcp = 0
        for packet, _bound in workload.packets(20_000):
            if packet.is_udp:
                udp += 1
            else:
                tcp += 1
        summary = workload.summary()
        started = summary["flows_started"]
        assert started > 1000
        # Elephant share of *flows* near the configured fraction.
        assert 0.02 < summary["elephants_started"] / started < 0.10
        assert udp > 0 and tcp > 0
        assert summary["peak_concurrency"] >= 1000

    def test_diurnal_shape_modulates_concurrency(self):
        flat = CityScaleProfile(
            total_flows=100_000, concurrency=400, seed=9,
            diurnal=(1.0,),
        )
        breathing = CityScaleProfile(
            total_flows=100_000, concurrency=400, seed=9,
            diurnal=(0.25, 1.5),
        )
        flat_workload = CityScaleWorkload(flat)
        for _ in flat_workload.packets(10_000):
            pass
        breathing_workload = CityScaleWorkload(breathing)
        for _ in breathing_workload.packets(10_000):
            pass
        # The breathing profile peaks above the flat one (1.5x target)
        # even though both share the same base concurrency.
        assert (breathing_workload.peak_concurrency
                > flat_workload.peak_concurrency)

    def test_population_exhaustion_ends_the_stream(self):
        profile = CityScaleProfile(total_flows=20, concurrency=10,
                                   mouse_mean_packets=2,
                                   elephant_fraction=0.0, seed=1)
        emitted = sum(1 for _ in CityScaleWorkload(profile).packets(100_000))
        assert emitted < 100_000  # ran out of flows, stream drained
