"""Physical constants and every numeric constant published in the paper.

Single source of truth: other modules import from here instead of re-typing
magic numbers.  Where the paper is internally inconsistent (see Modelling
decisions §5 in docs/reproducing.md) the paper's published value is kept and
the discrepancy noted.
"""

from __future__ import annotations

SPEED_OF_LIGHT_M_S = 299_792_458.0

# --- 5G NR carrier (Section III-A) ------------------------------------------
#: Default sub-6 GHz carrier frequency.  The paper only says "sub-6 GHz"; 3.5
#: GHz (band n78) is the common European railway-corridor band and matches the
#: registered N=1 maximum ISD of 1250 m.
DEFAULT_CARRIER_FREQUENCY_HZ = 3.5e9
#: Carrier bandwidth considered in the paper.
NR_CARRIER_BANDWIDTH_HZ = 100e6
#: Number of subcarriers the paper divides total power by (Section III-A).
NR_SUBCARRIER_COUNT = 3300

# --- Transmit powers (Section V) --------------------------------------------
#: High-power RRH EIRP: 2500 W = 64 dBm per antenna.
HP_EIRP_DBM = 64.0
#: Low-power repeater EIRP: 10 W = 40 dBm.
LP_EIRP_DBM = 40.0

# --- Calibration factors (Eq. 1) --------------------------------------------
#: Calibration of HP port-to-port attenuation, includes losses into wagons.
HP_CALIBRATION_DB = 33.0
#: Calibration of LP repeater port-to-port attenuation.
LP_CALIBRATION_DB = 20.0

# --- Noise (Eq. 2) -----------------------------------------------------------
#: Thermal noise floor per subcarrier (paper value; corresponds to a 15 kHz
#: subcarrier although 3300 subcarriers in 100 MHz imply 30 kHz — kept as
#: published, see Modelling decisions §5 in docs/reproducing.md).
NOISE_FLOOR_RSRP_DBM = -132.0
#: Noise figure of a typical mobile terminal.
TERMINAL_NOISE_FIGURE_DB = 5.0
#: Noise figure of the low-power repeater node.
REPEATER_NOISE_FIGURE_DB = 8.0

# --- Throughput model (3GPP TR 36.942 A.2, Section III-A) --------------------
#: Attenuation factor alpha of the truncated Shannon bound.
THROUGHPUT_ALPHA = 0.6
#: Maximum spectral efficiency of 5G NR considered by the paper [bps/Hz].
THROUGHPUT_MAX_BPS_HZ = 5.84
#: Lower SNR limit of the truncated Shannon bound per TR 36.942 [dB].
THROUGHPUT_MIN_SNR_DB = -10.0
#: The paper's stated peak-throughput criterion for the ISD sweep:
#: "the throughput still matches the peak throughput of 5G NR at an
#: SNR > 29 dB" (Section V).  The exact saturation point of the truncated
#: Shannon bound is 29.30 dB; using the stated 29.0 dB reproduces the
#: registered ISD list exactly for N = 1..4 (see Modelling decisions §4.1 in
#: docs/reproducing.md).
PEAK_SNR_CRITERION_DB = 29.0

# --- Power model parameters (Table II, per radio unit) -----------------------
HP_RRH_PMAX_W = 40.0
HP_RRH_P0_W = 168.0
HP_RRH_DELTA_P = 2.8
HP_RRH_PSLEEP_W = 112.0

LP_REPEATER_PMAX_W = 1.0
LP_REPEATER_P0_W = 24.26
LP_REPEATER_DELTA_P = 4.0
LP_REPEATER_PSLEEP_W = 4.72

#: RRHs (sectors) per high-power mast: two antennas mounted back-to-back.
RRH_PER_MAST = 2

# --- Derived site-level powers quoted in Section III-B -----------------------
HP_SITE_FULL_LOAD_W = 560.0   # 2 x (168 + 2.8 * 40)
HP_SITE_NO_LOAD_W = 336.0     # 2 x 168
HP_SITE_SLEEP_W = 224.0       # 2 x 112

#: Table I / Table III full-load repeater power (TDD, one direction driven).
LP_REPEATER_FULL_LOAD_W = 28.38
#: Table III value rounded in the paper's table ("28.4 W").
LP_REPEATER_FULL_LOAD_TABLE3_W = 28.4

# --- Traffic scenario (Table III) --------------------------------------------
TRAINS_PER_HOUR = 8
NIGHT_QUIET_HOURS = 5.0
TRAIN_LENGTH_M = 400.0
TRAIN_SPEED_KMH = 200.0
LP_NODE_SPACING_M = 200.0

# --- Corridor ----------------------------------------------------------------
#: Conventional corridor inter-site distance (scenario constant, Section I/V).
CONVENTIONAL_ISD_M = 500.0
#: Catenary masts are generally available every 50 m (Section III).
CATENARY_MAST_SPACING_M = 50.0
#: ISD sweep granularity used by the paper (Section V).
ISD_STEP_M = 50.0

#: Registered maximum ISDs from Section V for N = 1..10 repeater nodes [m].
PAPER_MAX_ISD_M = (1250.0, 1450.0, 1600.0, 1800.0, 1950.0,
                   2100.0, 2250.0, 2400.0, 2500.0, 2650.0)

#: Average power of a sleeping-capable LP node quoted in Section V-A.
PAPER_LP_AVG_SLEEP_W = 5.17
PAPER_LP_AVG_SLEEP_WH_PER_DAY = 124.1

# --- Solar study (Section IV-B, Table IV) -------------------------------------
PV_MODULE_PEAK_W = 180.0
PV_MODULES_PER_MAST = 3
PV_DEFAULT_PEAK_W = 540.0        # 3 x 180 Wp
PV_BERLIN_PEAK_W = 600.0
BATTERY_DEFAULT_WH = 720.0
BATTERY_DOUBLED_WH = 1440.0
BATTERY_DISCHARGE_CUTOFF = 0.40  # fraction of capacity
PV_TILT_DEG = 90.0               # vertical mounting on catenary masts
PV_AZIMUTH_DEG = 0.0             # facing the equator (PVGIS convention)

#: Table IV "Days with full battery" [%] as published.
PAPER_FULL_BATTERY_DAYS_PCT = {
    "madrid": 98.13,
    "lyon": 95.15,
    "vienna": 93.73,
    "berlin": 88.0,
}

# --- Related-work context numbers (Section I) ---------------------------------
#: Average power of a regular (non-corridor) macro cell site.
REGULAR_CELL_SITE_AVG_W = 3200.0
#: Active onboard train relay power for five frequency bands.
ONBOARD_RELAY_POWER_W = 650.0
#: Electrified railway track length in Europe quoted in the introduction [km].
EUROPE_ELECTRIFIED_TRACK_KM = 118_000.0
#: Corresponding yearly energy consumption estimate [TWh].
EUROPE_CORRIDOR_ENERGY_TWH = 1.24
#: Power consumption per km of a 500 m ISD corridor quoted in Section I [W].
CORRIDOR_POWER_PER_KM_QUOTED_W = 1200.0

# --- Sleep transition ---------------------------------------------------------
#: "The transition time between the active state and the sleep mode is assumed
#: to be in the order of a few hundred milliseconds." (Section III-B)
SLEEP_TRANSITION_S = 0.3
