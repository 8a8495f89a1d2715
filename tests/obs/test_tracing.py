"""The observability switchboard: ``OBS.active`` is the registry switch."""

from repro.obs.registry import OBS, MetricsRegistry, isolated_registry, set_registry


class TestSwitchboard:
    def test_active_reflects_registry_enablement(self):
        with isolated_registry(enabled=True) as registry:
            assert OBS.active is True
            registry.disable()
            assert OBS.active is False
            registry.enable()
            assert OBS.active is True

    def test_isolated_registry_restores_previous(self):
        outer = MetricsRegistry(enabled=False)
        previous = set_registry(outer)
        try:
            with isolated_registry() as inner:
                assert OBS.registry is inner
                inner.counter("c_total", "help").inc()
            assert OBS.registry is outer
            assert outer.sample_value("c_total") == 0.0
        finally:
            set_registry(previous)
