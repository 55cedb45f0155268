"""Solar substrate — an offline substitute for the PVGIS off-grid tool.

The paper dimensions the repeater's PV system with the PVGIS web service
(https://ec.europa.eu/jrc/en/pvgis).  That service is not available offline,
so this package implements the pieces of it the paper consumes:

* solar geometry (declination, hour angle, zenith/incidence angles),
* a synthetic typical-meteorological-year generator driven by monthly
  clearness-index climatology for the four studied locations, with seeded
  AR(1) day-to-day variability (dark-spell persistence is what drains the
  battery in winter),
* Erbs diffuse decomposition and isotropic transposition onto the vertical
  south-facing module plane,
* a PV + battery off-grid simulation reporting the PVGIS statistics used in
  Table IV ("days with full battery", downtime), and
* a sizing search that finds the minimal zero-downtime configuration.

See Modelling decisions §3 in docs/reproducing.md for the substitution
rationale and calibration notes.
"""

from repro._lazy import lazy_exports

__all__ = [
    "SolarGeometry",
    "declination_rad",
    "sunset_hour_angle_rad",
    "Location",
    "LOCATIONS",
    "WeatherParams",
    "SyntheticWeather",
    "WeatherYear",
    "WeatherKey",
    "WeatherCache",
    "simulate_systems",
    "PvArray",
    "Battery",
    "LoadProfile",
    "repeater_load_profile",
    "OffGridSystem",
    "OffGridResult",
    "SizingResult",
    "find_minimal_system",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "geometry": ("SolarGeometry", "declination_rad", "sunset_hour_angle_rad"),
    "climates": ("LOCATIONS", "Location"),
    "irradiance": (
        "SyntheticWeather", "WeatherParams", "WeatherYear",
    ),
    "pv": ("PvArray",),
    "battery": ("Battery",),
    "offgrid": (
        "LoadProfile", "OffGridResult", "OffGridSystem",
        "repeater_load_profile",
    ),
    "sizing": ("SizingResult", "find_minimal_system"),
    "batch": ("WeatherCache", "WeatherKey", "simulate_systems"),
})
