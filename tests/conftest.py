from pathlib import Path

import pytest

from ringlab.devicemodel import DeviceConfig, load_config


@pytest.fixture(scope="session")
def device_cfg_path() -> Path:
    return Path(__file__).resolve().parents[1] / "device.cfg"


@pytest.fixture(scope="session")
def cfg(device_cfg_path) -> DeviceConfig:
    """The calibrated device of device.cfg; a DeviceConfig is frozen, so
    every test can share this one."""
    return load_config(device_cfg_path)


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, *names) replaces each named function of `module`
    by one that counts its calls, and returns the counts by name."""
    def install(module, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _original=getattr(module, name), _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    return install
