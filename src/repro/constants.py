"""Physical and accounting constants shared across the Celeste reproduction.

The FLOP-accounting constants come directly from the paper (Section VI-B):
each *active pixel visit* — one evaluation of a single source's contribution
to one pixel's Poisson rate, together with its gradient and Hessian —
performs 32,317 double-precision FLOPs, as measured by the authors with the
Intel Software Development Emulator.  FLOPs outside the objective function
(trust-region eigendecompositions, Cholesky factorizations, ...) scale the
total by a further 1.375x.
"""

from __future__ import annotations

# --- SDSS photometric bands -------------------------------------------------
#: Band names in SDSS order (ultraviolet through near infrared).
BANDS: tuple[str, ...] = ("u", "g", "r", "i", "z")
#: Number of photometric bands.
NUM_BANDS: int = len(BANDS)
#: Index of the reference band (r) whose brightness is modeled directly.
REFERENCE_BAND: int = 2
#: Number of colors (log flux ratios between adjacent bands).
NUM_COLORS: int = NUM_BANDS - 1

# --- Source types ------------------------------------------------------------
#: Index of the "star" hypothesis in type-indexed arrays.
STAR: int = 0
#: Index of the "galaxy" hypothesis in type-indexed arrays.
GALAXY: int = 1
#: Number of source types (star, galaxy).
NUM_TYPES: int = 2

#: Number of components in the Gaussian-mixture color prior (Celeste used 8;
#: with 2 types this contributes the k[8,2] block of the 44-parameter layout).
NUM_COLOR_COMPONENTS: int = 8

# --- FLOP accounting (paper Section VI-B) ------------------------------------
#: Double-precision FLOPs performed per active pixel visit (SDE-measured).
FLOPS_PER_ACTIVE_PIXEL_VISIT: int = 32_317
#: Multiplier accounting for FLOPs outside the objective function.
FLOP_OVERHEAD_FACTOR: float = 1.375

# --- Machine model defaults (Cori Phase II, paper Section VI-A) ---------------
#: Cores per Cori Phase II node (Intel Xeon Phi 7250).
CORES_PER_NODE: int = 68
#: Processes per node in the empirically best configuration (Section VII-B).
PROCESSES_PER_NODE: int = 17
#: Threads per process in the empirically best configuration (Section VII-B).
THREADS_PER_PROCESS: int = 8
#: Burst Buffer aggregate peak bandwidth, bytes/second (1.7 TB/s).
BURST_BUFFER_BANDWIDTH: float = 1.7e12
#: Lustre aggregate bandwidth, bytes/second (700 GB/s).
LUSTRE_BANDWIDTH: float = 7.0e11
#: Size of one SDSS field file in bytes (the paper's "12 MB image files").
FIELD_FILE_BYTES: int = 12 * 1024 * 1024

# --- Parameter-vector layout sizes -------------------------------------------
#: Constrained parameters per source: a[2] + u[2] + r1[2] + r2[2] + c1[4,2]
#: + c2[4,2] + e_dev + e_axis + e_angle + e_scale + k[8,2] = 44 (paper, §IV).
NUM_CANONICAL_PARAMS: int = 44

# --- Numerical guard tolerances ----------------------------------------------
# Every guard epsilon used on a numeric path lives here under a name that
# says what it protects; the NUM202 lint rule rejects bare power-of-ten
# literals in clamps and threshold comparisons anywhere else, so a guard
# cannot silently drift out of sync between the scalar and batched paths.

#: Floor applied to per-pixel background rates before they enter the Poisson
#: pixel term (a zero background makes ``log f`` unbounded at dark pixels).
BACKGROUND_RATE_FLOOR: float = 1e-3
#: Clip distance from {0, 1} used when inverting unit-interval bijectors
#: (LogitBox, fixed-last softmax); keeps the inverse logits finite.
UNIT_INTERVAL_EDGE: float = 1e-6
#: Trust-region radius below which a Newton solve is declared collapsed.
TRUST_REGION_MIN_RADIUS: float = 1e-10
#: Largest magnitude fed to ``exp`` on guarded paths: ``exp(709.0)`` is the
#: last power that fits in a float64, so clamping an exponent at ±709 turns
#: overflow-to-inf into a saturated-but-finite value (and is bitwise inert
#: for every argument that was already in range).
EXP_ARG_LIMIT: float = 709.0
#: Floor for catalog fluxes entering a log during seeding (Photo detections
#: are positive; the floor only matters for degenerate synthetic inputs).
SEED_FLUX_FLOOR: float = 1e-6
#: Floor applied to fluxes before forming colors ``log(f[b+1]/f[b])``;
#: bitwise inert for any physically plausible positive flux.
FLUX_RATIO_FLOOR: float = 1e-12
#: Gradient components below this are "numerically orthogonal" to the bottom
#: eigenspace in the trust-region hard case (More-Sorensen safeguard).
HARD_CASE_GRAD_TOL: float = 1e-12
#: Step norms below this are treated as exactly degenerate when solving the
#: trust-region secular equation (denormal floor, not a tuning knob).
DEGENERATE_STEP_NORM: float = 1e-300
#: Floor on second-moment eigenvalues when recovering an ellipse from
#: measured moments (a flat source would otherwise yield axis ratio 0/0).
MOMENT_EIGENVALUE_FLOOR: float = 1e-12
#: Floor on the total type-probability mass when renormalizing ``a`` out of
#: a canonical vector (the two entries sum to ~1 on any sane vector).
TYPE_MASS_FLOOR: float = 1e-12
#: Clip distance from {0, 1} for probabilities entering an entropy
#: ``p log p`` (tighter than UNIT_INTERVAL_EDGE: entropy is reported, not
#: inverted, so the edge only needs to keep the log finite).
TYPE_PROB_EDGE: float = 1e-12
#: Floor on the radius argument of the de Vaucouleurs profile (the r^{1/4}
#: cusp has infinite slope at exactly zero).
PROFILE_RADIUS_FLOOR: float = 1e-12
#: Floor on warm-start NNLS amplitudes for the profile mixture fit (zero
#: amplitudes would start the log-parameterized refinement at -inf).
NNLS_AMPLITUDE_FLOOR: float = 1e-6
