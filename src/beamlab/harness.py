"""Monte Carlo driver: trial draws, batched sweeps, aggregation, CSV emission.

``run_experiment`` runs one experiment of ``config.EXPERIMENTS``. Its
trials run in chunks: a chunk draws the inputs of its (trial, x) points
for the whole x grid, runs each method as one batched call over them,
and returns one (x, method, trial) block of values with its failures.
``run_experiment`` writes each block into the run's one (x, method,
trial) table as its chunk returns; ``_aggregate`` takes the table's
statistics a block of x rows at a time, and the ``SweepResult`` holds
these tables as per-method views. ``emit_csv`` writes the tables in
their C order, the CSV row order: each block of rows takes its values
as one slice of each table and is one printf-style format of a row
template per (method[, trial]) over the block's x cells and values.

Trial t derives both its mismatch and snapshot RNG streams from the
master seed by counter, so runs are reproducible and trials can execute
in parallel in any order. Past those per-trial draws, a chunk's set-up
is array code over its trials (``normalize_config`` has bounded its
memory); it is the package's only simulation code. Every sweep reduces
a trial's draw to the Gram matrix of its normals, summed over blocks of
GRAM_BLOCK columns, and no snapshot matrix is formed. The SNR and INR
sweeps draw each trial once and scale it; the snapshot sweep draws each
trial's stream once, at its largest k, and takes every k's draw from a
prefix of it. The physical array's sample covariance is the leading
m x m block of the extended one, and LCSSP reads the extended one only
through the m x m IPNC it reconstructs, so a chunk holds that stream, a
conjugated Gram block, a trial's Grams and its covariances once each,
and over its points only the m x m stacks its methods read. A chunk
whose methods read neither stack draws no snapshots.
"""

import ctypes
import os
import threading
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cache, partial
from itertools import cycle, islice
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from .array_model import _element_positions, _steering_grid, steering_matrix, steering_vector
from .baselines import (
    capon_integral_weights,
    diagonal_loading_weights,
    hermitize,
    optimal_weights,
    scm_mvdr_weights,
)
from .config import EXPERIMENTS, GRAM_BLOCK, SCM_METHODS, ExperimentConfig
from .config import _as_int, _sector_complement, normalize_config, run_layout
from .lcssp import (
    LcsspConfig,
    NoConvergenceError,
    lcssp_weights,
    normalized_error,
    reconstruct_ipnc,
    select_dimension,
)
from .metrics import (
    beampattern_grid_deg,
    default_beampattern_grid,
    output_sinr,
    pattern_gains_db,
)

DOMINANCE_TOL_DB = 1e-6
# Raw values per block of a run's statistics, which take whole x rows:
# a block's float copy and mask (0.15 MB) stay in cache, and the numpy
# calls per block amortize over it.
STATS_BLOCK_VALUES = 2**14
# Rows per CSV write: a block's values and text are all of the file held
# in memory, and one block amortizes the interpreter's cost per write.
CSV_BLOCK_ROWS = 4096

# (getter, setter) symbol names of OpenBLAS's thread count under every
# affix numpy wheels build it with: the scipy-openblas prefix of numpy 2,
# none, and the suffixes of a 64-bit-integer build (numpy 1.x: "64_").
_OPENBLAS_THREAD_SYMBOLS = [
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("64_", "_64", "")
]


class MethodViews(Mapping):
    """Read-only map from each method to its column ``table[:, j]`` of an
    (x, method[, trial]) ``table``, which it keeps; it iterates the
    methods in the table's order."""

    def __init__(self, table, methods):
        self.table = table
        self._columns = {meth: j for j, meth in enumerate(methods)}

    def __getitem__(self, method):
        return self.table[:, self._columns[method]]

    def __iter__(self):
        return iter(self._columns)

    def __len__(self):
        return len(self._columns)


@dataclass
class SweepResult:
    """Aggregated Monte Carlo output for one experiment.

    The per-trial values form one (x, method, trial) table with nan
    marking failures, and ``raw[method]`` is that method's (n_x, trials)
    column of it. ``mean_sinr_db``, ``std_db`` and ``n_ok`` hold (x,
    method) tables computed from it over the finite entries, so they stay
    consistent by construction. Each of the four is a ``MethodViews``
    whose ``table`` is in the CSV row order.
    """

    x_values: np.ndarray
    methods: list
    raw: MethodViews
    mean_sinr_db: MethodViews
    std_db: MethodViews
    n_ok: MethodViews
    diagnostics: dict
    config: ExperimentConfig


def _aggregate(config, x_values, raw, diagnostics):
    """Statistics of the filled (x, method, trial) table ``raw`` over its
    finite trials, and a ``SweepResult`` that holds ``raw`` and the (x,
    method) statistics tables as per-method views.

    The statistics run over blocks of x rows, about STATS_BLOCK_VALUES
    values each and at least one row, so their temporaries are a block's
    size, not the table's. A row's sums over its trials do not depend on
    the block it is in.
    """
    n_x, n_methods, trials = raw.shape
    n_ok = np.empty((n_x, n_methods), dtype=int)
    mean, std = np.empty((2, n_x, n_methods))
    step = max(1, STATS_BLOCK_VALUES // (n_methods * trials))
    for s in range(0, n_x, step):
        block = raw[s : s + step]
        mask = np.isfinite(block)
        denom = np.maximum(mask.sum(axis=-1, out=n_ok[s : s + step]), 1)
        # The deviations reuse the zero-filled copy of the block.
        dev = np.where(mask, block, 0.0)
        mu = np.divide(dev.sum(axis=-1), denom, out=mean[s : s + step])
        np.subtract(dev, mu[..., None], out=dev, where=mask)
        np.divide(np.square(dev, out=dev).sum(axis=-1), denom, out=std[s : s + step])
    np.sqrt(std, out=std)
    mean[n_ok == 0] = std[n_ok == 0] = np.nan
    return SweepResult(
        x_values=np.asarray(x_values, dtype=float),
        methods=list(config.methods),
        raw=MethodViews(raw, config.methods),
        mean_sinr_db=MethodViews(mean, config.methods),
        std_db=MethodViews(std, config.methods),
        n_ok=MethodViews(n_ok, config.methods),
        diagnostics=diagnostics,
        config=config,
    )


def _resolve_lcssp(config):
    """Config-deterministic set-up, built once: (projection, epsilon_n,
    error text, rows of every draw).

    The projector is built whether or not lcssp runs, so the methods
    shared with lcssp see identical data either way: every draw has the
    projector's dimension, else m at "auto", else the fixed l. The
    projection, epsilon_n and error text are None when lcssp is not among
    the methods, the projection and epsilon_n also when no projector can
    be built.
    """
    settings = LcsspConfig(
        presumed_soi=np.deg2rad(config.presumed_soi_deg),
        soi_sector_halfwidth=np.deg2rad(config.sector_halfwidth_deg),
        nominal_interferers=np.deg2rad(config.interferers_deg),
        delta=config.delta,
        l_initial=config.m,
        fixed_l=None if config.l == "auto" else config.l,
    )
    projection = error = None
    try:
        _, projection = select_dimension(settings)
    except (NoConvergenceError, ValueError) as err:
        error = f"{type(err).__name__}: {err}"
    n_generate = len(projection) if projection is not None else settings.fixed_l or config.m
    if "lcssp" not in config.methods:
        return None, None, None, n_generate
    epsilon = (
        None if projection is None else normalized_error(projection, settings.nominal_interferers)
    )
    return projection, epsilon, error, n_generate


def _draw_mismatch(config, trial):
    """Per-trial true directions, position errors, and snapshot seed.

    One RNG stream (seed, trial, 0) drives the mismatch draws in a fixed
    order: look-direction offset, interferer offsets (experiments that
    perturb interferers only), then M-1 position errors with element 0
    anchored at 0.
    The snapshot seed comes from the separate stream (seed, trial, 1) and
    is shared by every x on the grid, so sweep points see common random
    numbers.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, trial, 0]))
    soi_nominal = np.deg2rad(config.presumed_soi_deg)
    int_nominal = np.deg2rad(np.asarray(config.interferers_deg, dtype=float))
    hw_doa = np.deg2rad(config.doa_mismatch_halfwidth_deg)
    hw_pos = config.position_error_halfwidth_wl
    soi_true = soi_nominal + rng.uniform(-hw_doa, hw_doa) if hw_doa > 0 else soi_nominal
    if EXPERIMENTS[config.experiment].perturbs_interferers and hw_doa > 0:
        int_true = np.array([th + rng.uniform(-hw_doa, hw_doa) for th in int_nominal])
    else:
        int_true = int_nominal.copy()
    if hw_pos > 0:
        perr = np.concatenate(([0.0], rng.uniform(-hw_pos, hw_pos, config.m - 1)))
    else:
        perr = np.zeros(config.m)
    snap_seed = int(
        np.random.SeedSequence([config.seed, trial, 1]).generate_state(1, np.uint64)[0]
    )
    return soi_true, int_true, perr, snap_seed


@dataclass(frozen=True, eq=False)
class _Points:
    """Inputs of a chunk's points on its (trial, x) axes.

    A size-1 axis holds one value shared by every point along it: a
    trial's true steering vector serves every x, and so does its true
    IPNC unless an interferer power changes with x. A stack that no
    method of the run reads is None.
    """

    scm: np.ndarray  # (T, X, m, m) sample covariances of the physical rows
    lcssp: np.ndarray  # (T, X, m, m) IPNCs that LCSSP reconstructs
    ipnc: np.ndarray  # (T, 1 or X, m, m) true IPNCs
    tsv: np.ndarray  # (T, 1, m) true steering vectors
    soi_power: np.ndarray  # (1, X)

    @property
    def shape(self):
        """(trials, x values) of the chunk."""
        return self.tsv.shape[0], self.soi_power.shape[1]

    def __getitem__(self, index):
        """Point (t, ix) as a (1, 1) stack of its own."""
        t, ix = index

        def point(a):
            if a is None:
                return None
            return np.broadcast_to(a, (*self.shape, *a.shape[2:]))[t : t + 1, ix : ix + 1]

        return _Points(*(point(getattr(self, f.name)) for f in fields(self)))


def _gram(z, conjugate, out):
    """Z Z^H / k of an (n, k) block Z, written into ``out``.

    Z Z^H sums the products of Z's GRAM_BLOCK-column blocks, anchored at
    column 0, in ascending order from the first one, so at k up to
    GRAM_BLOCK it is the single product. Each block is conjugated into
    the leading entries of the complex buffer ``conjugate``.
    """
    for s in range(0, z.shape[1], GRAM_BLOCK):
        block = z[:, s : s + GRAM_BLOCK]
        block_h = np.conjugate(block, out=conjugate[: block.size].reshape(block.shape)).T
        if s == 0:
            np.matmul(block, block_h, out=out)
        else:
            out += block @ block_h
    out /= z.shape[1]


def _draw(config, x_values, trials, n_generate, reduce):
    """The draws of a chunk's trials: (true IPNCs, true steering vectors,
    SOI powers); unless ``reduce`` is None, ``reduce(t, covariances)``
    takes each trial t's (X, L, L) extended sample covariances in turn.

    Each trial draws its mismatch and snapshot seed from its own streams;
    the rest is array code over the chunk. The (X, 1 + P) power table p
    holds the powers of [SOI, *interferers] at each x: the swept grid's x
    values for the sources it sets, the first entry of every other grid.
    The physical aperture's steering stack of the true directions holds
    each trial's true steering vector and interferer columns A_I, and the
    true IPNCs A_I diag(p) A_I^H + I are one product: one per trial, or
    one per point if an interferer power changes with x. No snapshots are
    drawn when ``reduce`` is None. A point's snapshots would be B Z, with
    Z the draw's complex normals (source waveforms, then noise) and B =
    [A, I] diag(a) for the extended aperture's steering matrix A and the
    amplitudes a = sqrt(power / 2), so its covariance is B G B^H with G =
    Z Z^H / k, formed per trial by ``_gram``. In the SNR and INR sweeps
    the x values of a trial share G; the snapshot sweep draws the trial's
    stream once, at its largest k, and every k's Z is a view of its first
    2 n_rows k numbers read as complex pairs.
    """
    m, n, n_x = config.m, n_generate, len(x_values)
    grid = EXPERIMENTS[config.experiment].grid
    ks = [int(k) for k in x_values] if grid == "k_grid" else config.k_grid[:1]

    def levels(field):
        values = x_values if grid == field else getattr(config, field)[:1] * n_x
        return [10.0 ** (float(x) / 10.0) for x in values]

    n_int = len(config.interferers_deg)
    powers = np.column_stack([levels("snr_grid_db")] + [levels("inr_grid_db")] * n_int)
    draws = [_draw_mismatch(config, trial) for trial in trials]
    sines = np.sin([[soi, *interferers] for soi, interferers, _, _ in draws])
    # Element 0's position error is 0, so the positions need no re-referencing.
    positions = _element_positions(n, np.stack([perr for _, _, perr, _ in draws]))
    physical = _steering_grid(positions[:, :m], sines)
    # A trial's points share its true IPNC unless an interferer power
    # changes with x. The IPNC and steering vector are made C-contiguous:
    # BLAS rounds output_sinr's products by their memory layout.
    int_powers = powers[:, 1:] if np.any(powers[:, 1:] != powers[0, 1:]) else powers[:1, 1:]
    a_int = physical[:, None, :, 1:]
    ipnc = (a_int * int_powers[..., None, :]) @ np.swapaxes(a_int.conj(), -1, -2) + np.eye(m)
    ipnc = np.ascontiguousarray(hermitize(ipnc))
    tsv = np.ascontiguousarray(physical[:, None, :, 0])
    if reduce is None:
        return ipnc, tsv, powers[None, :, 0]
    amplitudes = np.sqrt(np.hstack((powers, np.ones((n_x, n)))) / 2.0)[:, None, :]
    n_rows = amplitudes.shape[-1]
    extended = _steering_grid(positions, sines)
    # The trials draw into one stream buffer, conjugate one Gram block at a
    # time into one more and write their Grams into one stack, so they
    # allocate no multi-MB arrays whose speed depends on the allocator.
    stream = np.empty(2 * n_rows * max(ks))
    conjugate = np.empty(n_rows * min(max(ks), GRAM_BLOCK), dtype=complex)
    gram = np.empty((len(ks), n_rows, n_rows), dtype=complex)
    for t, (_, _, _, snap_seed) in enumerate(draws):
        b = np.hstack((extended[t], np.eye(n))) * amplitudes
        np.random.default_rng(snap_seed).standard_normal(out=stream)
        # Z's rows are the waveforms of [SOI, *interferers], then noise, so
        # the first m noise rows of an extended draw are the m-element draw.
        for k, out in zip(ks, gram):
            _gram(stream[: 2 * n_rows * k].view(complex).reshape(n_rows, k), conjugate, out)
        reduce(t, hermitize(b @ gram @ np.swapaxes(b, -1, -2).conj()))
    return ipnc, tsv, powers[None, :, 0]


def _draw_points(config, x_values, trials, n_generate, projection):
    """Draw every (trial, x) point of ``trials``, keeping what the methods read.

    The chunk holds two (T, X, m, m) stacks: the SCM, the leading m x m
    block of each point's extended covariance, if an SCM method runs, and
    LCSSP's IPNC reconstructed from it under ``projection``, if that is
    not None. ``_draw`` hands each trial's covariances to a reduction that
    fills them, and draws no snapshots when neither stack is held.
    """
    m = config.m
    shape = (len(trials), len(x_values), m, m)
    scm = np.empty(shape, dtype=complex) if set(SCM_METHODS) & set(config.methods) else None
    lcssp = None if projection is None else np.empty(shape, dtype=complex)

    def reduce(t, covariances):
        if scm is not None:
            scm[t] = covariances[..., :m, :m]
        if lcssp is not None:
            lcssp[t] = reconstruct_ipnc(projection, covariances, m)

    held = scm is not None or lcssp is not None
    drawn = _draw(config, x_values, trials, n_generate, reduce if held else None)
    return _Points(scm, lcssp, *drawn)


def _method_sinr(method, points, presumed, complement):
    """Weights and output SINRs of one method per point; a non-finite SINR raises LinAlgError."""
    if method == "optimal":
        w = optimal_weights(points.ipnc, points.tsv)
    elif method == "scm_mvdr":
        w = scm_mvdr_weights(points.scm, presumed)
    elif method == "diagonal_loading":
        w = diagonal_loading_weights(points.scm, presumed)
    elif method == "capon_integral":
        w = capon_integral_weights(points.scm, presumed, complement)
    else:
        w = lcssp_weights(points.lcssp, presumed)
    sinr = output_sinr(w, points.soi_power, points.tsv, points.ipnc)
    bad = sinr[~np.isfinite(sinr)]
    if bad.size:
        raise np.linalg.LinAlgError(f"non-finite output SINR {bad[0]} dB")
    return w, sinr


def _point_values(method, points, presumed, complement):
    """(weights, SINRs, {(t, ix): error text}) of one method over a chunk's points.

    The only place where an exception becomes a point's failure: a point
    fails when its method raises a LinAlgError, and any other exception is
    a bug and stops the run. The library raises for a whole stack if any
    item fails; the stack is then redone one point at a time, and
    batch-of-one results equal the batched ones bit for bit, so only the
    failing points are lost. A failed point gets nan and zero weights.
    """
    args = (presumed, complement)
    failures = {}
    try:
        w, sinr = _method_sinr(method, points, *args)
    except np.linalg.LinAlgError:
        w = np.zeros((*points.shape, points.tsv.shape[-1]), dtype=complex)
        sinr = np.full(points.shape, np.nan)
        for index in np.ndindex(points.shape):
            try:
                w_i, sinr_i = _method_sinr(method, points[index], *args)
            except np.linalg.LinAlgError as err:
                failures[index] = f"{type(err).__name__}: {err}"
                continue
            w[index], sinr[index] = w_i[0, 0], sinr_i[0, 0]
    return np.broadcast_to(w, (*points.shape, w.shape[-1])), sinr, failures


def _run_chunk(config, x_values, projection, lcssp_error, n_generate, trials):
    """Monte Carlo trials ``trials`` across the whole x grid, batched.

    Returns (trials, values, failures, dominance violations). ``values``
    is an (n_x, methods, len(trials)) block of output SINRs; for the
    beampattern experiment it holds the gain curves of the single
    operating point instead, one row per beampattern angle. A violation
    is a point where a method's SINR beats ``optimal``'s by more than
    DOMINANCE_TOL_DB.
    """
    soi_nominal = np.deg2rad(config.presumed_soi_deg)
    presumed = steering_vector(soi_nominal, config.m)
    complement = _sector_complement(soi_nominal, np.deg2rad(config.sector_halfwidth_deg))
    points = _draw_points(config, x_values, trials, n_generate, projection)
    methods = config.methods
    # Item (t, ix, j) is trial trials[t] at x_values[ix] under methods[j].
    weights = np.zeros((*points.shape, len(methods), config.m), dtype=complex)
    sinr = np.full((*points.shape, len(methods)), np.nan)
    failures = []
    for j, meth in enumerate(methods):
        if meth == "lcssp" and projection is None:
            errors = dict.fromkeys(np.ndindex(points.shape), lcssp_error)
        else:
            weights[..., j, :], sinr[..., j], errors = _point_values(
                meth, points, presumed, complement
            )
        for (t, ix), error in errors.items():
            x = float(x_values[ix])
            failures.append({"trial": trials[t], "x": x, "method": meth, "error": error})
    violations = 0
    if "optimal" in methods:
        # Strictly greater, so the optimal column never counts against itself.
        best = sinr[..., methods.index("optimal"), None]
        violations = int(np.sum(sinr > best + DOMINANCE_TOL_DB))
    if EXPERIMENTS[config.experiment].grid is None:
        steer = steering_matrix(default_beampattern_grid(), config.m)
        gains = pattern_gains_db(weights[:, 0], steer)  # (trials, methods, angles)
        gains[np.isnan(sinr[:, 0])] = np.nan
        return trials, gains.T, failures, violations
    return trials, sinr.transpose(1, 2, 0), failures, violations


@cache
def _openblas_threads():
    """(get, set) thread-count functions of the OpenBLAS numpy links, or
    None where numpy links another BLAS; looked up once per process.

    A symbol lookup through a library's handle also searches the libraries
    it depends on, so numpy's linalg extension reaches its OpenBLAS.
    """
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__, mode=getattr(os, "RTLD_NOLOAD", 0))
    except OSError:
        return None
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class _OneBlasThread:
    """Context manager: OpenBLAS runs at one thread while any sweep of the
    process runs, and gets the caller's thread count back when the last
    one ends, also on error.

    Trials are the unit of parallelism: a threaded BLAS under each pool
    thread would oversubscribe the cores, and threaded zgemm rounds
    differently from the single-threaded one. The setting is process-wide,
    so sweeps running at once in several threads share one save and
    restore, and other threads' BLAS calls also run at one thread
    meanwhile. Without OpenBLAS this does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._sweeps = 0
        self._caller_threads = None

    def __enter__(self):
        controls = _openblas_threads()
        if controls is not None:
            get, set_ = controls
            with self._lock:
                if self._sweeps == 0:
                    self._caller_threads = get()
                    set_(1)
                self._sweeps += 1
        return self

    def __exit__(self, *exc):
        controls = _openblas_threads()
        if controls is not None:
            with self._lock:
                self._sweeps -= 1
                if self._sweeps == 0:
                    controls[1](self._caller_threads)
        return False


_one_blas_thread = _OneBlasThread()


def _submitted_ahead(pool, fn, items, ahead):
    """The results of ``fn`` over ``items`` on ``pool``, in order, with at
    most ``ahead`` items submitted whose results are not yet taken: a
    run's queue stays that short whatever its number of chunks."""
    pending = deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) == ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def run_experiment(config, workers=1):
    """Run the configured experiment and aggregate per-method results.

    Deterministic for a given config: trial t's randomness is derived from
    (seed, t) alone, and aggregation is order-insensitive, so any worker
    count yields identical results. Of at most min(workers, trials, CPU
    count) threads, ``config.run_layout`` picks the thread count and chunk
    length that fit the memory budget; a pool of that many threads maps
    the chunks, the same number for each thread, and submits at most two
    chunks per thread ahead of the results it has taken; ``workers``
    below 1 runs serially, and a non-integer one is a ConfigError.
    Threads overlap where a chunk releases the GIL: the RNG fill of the
    normals, BLAS products and numpy's batched LAPACK calls; the many
    small calls between them hold it, so two threads gain well under 2x
    (README gives the measured spread). If a chunk raises, or the caller is
    interrupted, the queued chunks are cancelled and the error
    propagates. OpenBLAS runs at one thread for the duration of the call
    and gets the caller's thread count back afterwards, so the worker
    count is the only parallelism and the raw bits do not depend on the
    BLAS thread count. The thread count is a process-wide setting: while
    a sweep runs, the caller's other threads also call BLAS at one
    thread, and concurrent sweeps restore the caller's count when the
    last of them ends. Failed trial points are recorded in
    diagnostics["failures"], excluded from means, and reflected in n_ok.
    """
    config = normalize_config(config)
    workers = max(1, min(_as_int(workers, "workers"), config.trials, os.cpu_count() or 1))
    workers, chunks = run_layout(config, workers)
    spec = EXPERIMENTS[config.experiment]
    # The beampattern runs at one operating point; its x axis is the angle.
    x_values = np.asarray([0.0] if spec.grid is None else getattr(config, spec.grid), dtype=float)
    table_x = beampattern_grid_deg() if spec.grid is None else x_values
    raw = np.full((len(table_x), len(config.methods), config.trials), np.nan)
    with _one_blas_thread:
        projection, epsilon, lcssp_error, n_generate = _resolve_lcssp(config)
        diagnostics = {
            "dominance_violations": 0,
            "failures": [],
            "l_chosen": None if projection is None else len(projection),
            "epsilon_n": epsilon,
            "lcssp_error": lcssp_error,
        }

        def fill(outcomes):
            # Each chunk's block goes into the table as the chunk returns.
            for trials, values, failures, violations in outcomes:
                raw[..., trials] = values
                diagnostics["failures"].extend(failures)
                diagnostics["dominance_violations"] += violations

        run_chunk = partial(_run_chunk, config, x_values, projection, lcssp_error, n_generate)
        if workers > 1:
            from concurrent.futures import ThreadPoolExecutor  # serial runs never pay its import

            pool = ThreadPoolExecutor(max_workers=workers)
            try:
                fill(_submitted_ahead(pool, run_chunk, chunks, 2 * workers))
            finally:
                # After an error or an interrupt, the queued chunks never run.
                pool.shutdown(cancel_futures=True)
        else:
            fill(map(run_chunk, chunks))
    diagnostics["failures"].sort(key=lambda rec: (rec["trial"], rec["x"], rec["method"]))
    return _aggregate(config, table_x, raw, diagnostics)


def _write_blocks(path, header, period, x_cells, tables):
    """Write ``header``, then the rows of ``tables`` in blocks of CSV_BLOCK_ROWS.

    Row r fills the template ``period[r % len(period)]`` with the x cell
    ``x_cells[r // len(period)]`` and entry r of each (x, method[, trial])
    table in C order; a block takes its entries as one slice of each.
    """
    n_rows, p, width = len(x_cells) * len(period), len(period), len(tables) + 1
    templates = cycle(period)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            n = min(CSV_BLOCK_ROWS, n_rows - start)
            args = [None] * (width * n)
            args[::width] = x_cells[np.arange(start, start + n) // p].tolist()
            for k, table in enumerate(tables, 1):
                v = table.flat[start : start + n]
                if v.dtype.kind == "f":
                    v = np.where(np.isfinite(v), v, np.nan)
                args[k::width] = v.tolist()
            fh.write("".join(islice(templates, n)) % tuple(args))


def emit_csv(result, path):
    """Write aggregate and raw CSVs; returns (path, raw_path).

    Schema: ``x,method,mean_sinr_db,std_db,n_ok`` plus a sibling
    ``*_raw.csv`` with ``x,method,trial,sinr_db`` (nan rows keep failed
    trials visible). UTF-8, LF line endings, ``.`` decimal separator,
    numbers to 12 significant digits with every non-finite value as
    ``nan``; byte-identical for identical runs. A file's rows repeat a
    period of printf-style row templates, one per method (aggregate) or
    per (method, trial) (raw). The rows are the C order of the result's
    (x, method[, trial]) tables, the ``table`` of each ``MethodViews``.
    Each block of CSV_BLOCK_ROWS rows takes its values as one slice of
    each table and is one ``%`` format over its x cells and values and
    one write; the writer holds the raw period (about 90 B a template),
    the x cells and one block of values and text, whatever the size of
    the tables. Tables that do not fit the x values, methods and
    ``config.trials``, and views whose methods are not ``result.methods``
    in order, raise ValueError before any file opens.
    """
    path = Path(path)
    raw_path = path.with_name(path.stem + "_raw" + path.suffix)
    trials = result.config.trials
    views = (result.mean_sinr_db, result.std_db, result.n_ok, result.raw)
    tables = [view.table for view in views]
    shapes = [table.shape for table in tables]
    n_x, n_methods = len(result.x_values), len(result.methods)
    if shapes != [(n_x, n_methods)] * 3 + [(n_x, n_methods, trials)]:
        raise ValueError(f"tables of shapes {shapes} do not fit {n_x} x values, "
                         f"{n_methods} methods and {trials} trials")
    if any(list(view) != list(result.methods) for view in views):
        raise ValueError(f"views list methods {[list(view) for view in views]}, "
                         f"not {list(result.methods)}")
    # One period of each file's row templates; a % in a method name is escaped.
    methods = [meth.replace("%", "%%") for meth in result.methods]
    agg_period = [f"%s,{meth},%.12g,%.12g,%d\n" for meth in methods]
    raw_period = [f"%s,{meth},{t},%.12g\n" for meth in methods for t in range(trials)]
    x = np.where(np.isfinite(result.x_values), result.x_values, np.nan)
    x_cells = np.array([f"{v:.12g}" for v in x.tolist()], dtype=object)
    try:
        _write_blocks(
            path, "x,method,mean_sinr_db,std_db,n_ok\n", agg_period, x_cells, tables[:3]
        )
        _write_blocks(raw_path, "x,method,trial,sinr_db\n", raw_period, x_cells, tables[3:])
    except OSError as err:
        raise OSError(f"writing results to {path}: {err}") from err
    return path, raw_path
