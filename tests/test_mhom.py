import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridspec import (
    DivergentResponse,
    EnsembleSpec,
    FrequencyGrid,
    MhomParams,
    Packets,
    PeaksNotResolved,
    SelfEnergy,
    Spectrum,
    SystemParams,
    find_peaks,
    mhom_middle_peak_shift,
    mhom_response,
    sample_ensemble,
    thom_excitation,
)
from hybridspec.estimate import DEFAULT_DELTAS
from hybridspec.mhom import (_CHUNK, _TERMS, _THETA, PEAK_SCAN_POINTS,
                             locate_peak)

from conftest import (
    OMEGA_NV,
    REFERENCE_ENSEMBLE,
    REFERENCE_MHOM_PARAMS,
    homogeneous_ensemble,
    sampled_self_energy,
    scalar_golden_section_max,
)

FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


def dense_response(packets, params, omegas):
    """|c|^2 from a dense solve of the qubit + 2N oscillator equations
    (omega - H) x = (lam/2) e_0, x = (c, b_1..b_N, d_1..d_N)."""
    n = len(packets)
    b = 1 + np.arange(n)
    d = b + n
    h = np.zeros((2 * n + 1, 2 * n + 1), dtype=complex)
    h[0, 0] = params.omega_fq - 1j * params.gamma_fq
    h[b, b] = packets.omega_b - 1j * params.gamma_b
    h[d, d] = packets.omega_d - 1j * params.gamma_d
    h[0, b] = h[b, 0] = packets.zeta
    h[b, d] = packets.j_zeeman + 1j * packets.j_strain
    h[d, b] = np.conj(h[b, d])
    rhs = np.zeros(2 * n + 1, dtype=complex)
    rhs[0] = params.lam / 2.0
    eye = np.eye(2 * n + 1)
    return np.array([abs(np.linalg.solve(w * eye - h, rhs)[0]) ** 2
                     for w in omegas])


def blocked_self_energy(packets, gamma_b, gamma_d, omegas):
    """The self-energy as a (frequency x packet) sum of each packet's
    rational term, in row blocks of 2^16 elements: the oracle of the pole
    form."""
    j2 = packets.j_zeeman ** 2 + packets.j_strain ** 2
    zeta2 = packets.zeta ** 2
    out = np.empty(len(omegas), dtype=complex)
    rows = max(1, (1 << 16) // len(packets))
    for k in range(0, len(omegas), rows):
        w = omegas[k:k + rows, None]
        num = w - packets.omega_d + 1j * gamma_d
        den = (w - packets.omega_b + 1j * gamma_b) * num - j2
        out[k:k + rows] = np.sum(zeta2 * num / den, axis=1)
    return out


def blocked_response(packets, params, omegas):
    sigma = blocked_self_energy(packets, params.gamma_b, params.gamma_d,
                                omegas)
    c = (params.lam / 2.0) / (omegas - params.omega_fq
                              + 1j * params.gamma_fq - sigma)
    return np.abs(c) ** 2


def max_rel(got, ref):
    return np.max(np.abs(got - ref) / ref)


SMALL_ENSEMBLES = {
    "gaussian": REFERENCE_ENSEMBLE.with_(n_packets=12, mean_zeeman=2.0,
                                         distribution="gaussian",
                                         hyperfine=0.0, seed=4),
    "lorentzian-hyperfine": REFERENCE_ENSEMBLE.with_(n_packets=12, seed=4),
}


def pipeline_scans(spec):
    """(lo, hi, qubit detuning, points) of the scans of estimate_separation
    and estimate_ratio and of the fit_gammas grid, at run_pipeline's
    defaults."""
    nv, cg = spec.omega_nv, spec.collective_g
    scans = [(nv - 2.0 * cg, nv - 0.4 * cg, 0.0, 401),
             (nv + 0.4 * cg, nv + 2.0 * cg, 0.0, 401),
             (nv - 2.3 * cg, nv + 2.3 * cg, 0.0, 1201)]
    return scans + [(nv - 0.3 * d - 0.5, nv + 0.3 * d + 0.5, d, 401)
                    for d in DEFAULT_DELTAS]


class TestSampling:
    def test_zero_width_gives_identical_packets(self):
        spec = EnsembleSpec(n_packets=100, mean_zeeman=28.0, fwhm_zeeman=0.0,
                            fwhm_strain=0.0, fwhm_zfs=0.0, collective_g=13.0,
                            omega_nv=OMEGA_NV, seed=3)
        pk = sample_ensemble(spec)
        assert np.all(pk.omega_b == OMEGA_NV)
        assert np.all(pk.omega_d == OMEGA_NV)
        assert np.all(pk.j_zeeman == 28.0)
        assert np.all(pk.j_strain == 0.0)

    def test_moments_of_gaussian_sampling(self):
        spec = EnsembleSpec(n_packets=36000, mean_zeeman=28.0,
                            fwhm_zeeman=3.1, fwhm_strain=4.4, fwhm_zfs=0.2,
                            collective_g=13.0, omega_nv=OMEGA_NV, seed=5)
        pk = sample_ensemble(spec)
        sigma = 3.1 * FWHM_TO_SIGMA
        assert abs(pk.j_zeeman.mean() - 28.0) < 3 * sigma / np.sqrt(36000)
        sample_fwhm = pk.j_zeeman.std() / FWHM_TO_SIGMA
        assert sample_fwhm == pytest.approx(3.1, rel=0.10)

    def test_determinism(self):
        spec = REFERENCE_ENSEMBLE
        a, b = sample_ensemble(spec), sample_ensemble(spec)
        for name in ("zeta", "omega_b", "omega_d", "j_zeeman", "j_strain"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_collective_coupling_constraint(self):
        pk = sample_ensemble(REFERENCE_ENSEMBLE)
        assert np.sum(pk.zeta ** 2) == pytest.approx(13.0 ** 2, rel=1e-12)
        assert np.all(pk.zeta >= 0)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n_packets=0, mean_zeeman=0.0, fwhm_zeeman=1.0,
                         fwhm_strain=1.0, fwhm_zfs=1.0, collective_g=1.0,
                         omega_nv=1.0, seed=0)
        with pytest.raises(ValueError):
            EnsembleSpec(n_packets=1, mean_zeeman=0.0, fwhm_zeeman=-1.0,
                         fwhm_strain=1.0, fwhm_zfs=1.0, collective_g=1.0,
                         omega_nv=1.0, seed=0)
        with pytest.raises(ValueError):
            EnsembleSpec(n_packets=1, mean_zeeman=0.0, fwhm_zeeman=1.0,
                         fwhm_strain=1.0, fwhm_zfs=1.0, collective_g=1.0,
                         omega_nv=1.0, seed=0, distribution="cauchyish")


class TestResponse:
    def test_homogeneous_limit_equals_three_oscillator_form(self):
        ens = homogeneous_ensemble(g=12.95, j=3.46)
        pk = sample_ensemble(ens)
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.300,
                            gamma_b=6.433, gamma_d=0.493)
        sys_params = SystemParams(
            omega_fq=OMEGA_NV, omega_nv=OMEGA_NV, g=12.95, j=3.46,
            gamma_fq=0.300, gamma_b=6.433, gamma_d=0.493,
        )
        omegas = np.linspace(OMEGA_NV - 30, OMEGA_NV + 30, 101)
        assert mhom_response(pk, params, omegas) == pytest.approx(
            thom_excitation(sys_params, omegas), rel=1e-10)

    def test_zero_drive(self):
        pk = sample_ensemble(homogeneous_ensemble())
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.3, gamma_b=0.2,
                            gamma_d=0.2, lam=0.0)
        assert mhom_response(pk, params, OMEGA_NV) == 0.0

    def test_drive_scaling_exact(self):
        pk = sample_ensemble(REFERENCE_ENSEMBLE)
        w = OMEGA_NV + 5.0
        v1 = mhom_response(pk, REFERENCE_MHOM_PARAMS, w)
        v20 = mhom_response(pk, REFERENCE_MHOM_PARAMS.with_(lam=20.0), w)
        assert v20 == pytest.approx(400.0 * v1, rel=1e-12)

    def test_permutation_invariance(self):
        pk = sample_ensemble(REFERENCE_ENSEMBLE.with_(n_packets=500))
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(pk))
        pk2 = Packets(zeta=pk.zeta[perm], omega_b=pk.omega_b[perm],
                      omega_d=pk.omega_d[perm], j_zeeman=pk.j_zeeman[perm],
                      j_strain=pk.j_strain[perm])
        w = OMEGA_NV - 7.0
        assert mhom_response(pk2, REFERENCE_MHOM_PARAMS, w) == pytest.approx(
            mhom_response(pk, REFERENCE_MHOM_PARAMS, w), rel=1e-12
        )

    def test_three_resonances_with_narrow_middle(self):
        pk = sample_ensemble(REFERENCE_ENSEMBLE)
        params = REFERENCE_MHOM_PARAMS.with_(lam=20.0)
        grid = FrequencyGrid(OMEGA_NV - 25, OMEGA_NV + 25, 801)
        spec = Spectrum(grid=grid, values=mhom_response(pk, params,
                                                        grid.points()),
                        model_tag="MHOM")
        # prominence above the sampled-ensemble roughness on the side peaks
        peaks = find_peaks(spec, min_prominence=0.1 * spec.values.max())
        assert len(peaks) == 3
        assert peaks[1].omega == pytest.approx(OMEGA_NV, abs=0.5)


class TestArrayResponse:
    @pytest.mark.parametrize("name", sorted(SMALL_ENSEMBLES))
    def test_matches_dense_linear_solve(self, name):
        pk = sample_ensemble(SMALL_ENSEMBLES[name])
        params = REFERENCE_MHOM_PARAMS.with_(lam=0.7,
                                             omega_fq=OMEGA_NV + 1.5)
        omegas = np.linspace(OMEGA_NV - 25, OMEGA_NV + 25, 301)
        got = mhom_response(pk, params, omegas)
        ref = dense_response(pk, params, omegas)
        assert np.max(np.abs(got - ref) / ref) < 1e-10

    def test_matches_scalar_calls_across_blocks(self):
        # frequencies that open different boxes of the tree and span two
        # traversal chunks, in one array call and one call each: same bits
        pk = sample_ensemble(REFERENCE_ENSEMBLE.with_(n_packets=2000))
        omegas = np.linspace(OMEGA_NV - 25, OMEGA_NV + 25, 333)
        for gammas in ((0.2, 0.2), (6.433, 0.493)):
            params = REFERENCE_MHOM_PARAMS.with_(gamma_b=gammas[0],
                                                 gamma_d=gammas[1])
            sigma = SelfEnergy(pk, *gammas)
            got = mhom_response(sigma, params, omegas)
            ref = np.array([mhom_response(sigma, params, w) for w in omegas])
            assert got.shape == omegas.shape
            assert np.array_equal(got, ref)
            assert np.array_equal(got, mhom_response(pk, params, omegas))

    def test_scalar_in_gives_python_scalar_out(self):
        pk = sample_ensemble(SMALL_ENSEMBLES["gaussian"])
        assert type(mhom_response(pk, REFERENCE_MHOM_PARAMS, OMEGA_NV)) \
            is float


class TestSelfEnergy:
    """The pole-form treecode against the blocked rational sum, to 1e-12
    relative on |c|^2."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_reference_ensemble_on_pipeline_grids(self, seed):
        pk = sample_ensemble(REFERENCE_ENSEMBLE.with_(seed=seed))
        params = REFERENCE_MHOM_PARAMS
        sigma = SelfEnergy(pk, params.gamma_b, params.gamma_d)
        for lo, hi, delta, n in pipeline_scans(REFERENCE_ENSEMBLE):
            p = params.with_(omega_fq=OMEGA_NV + delta)
            omegas = np.linspace(lo, hi, n)
            assert max_rel(mhom_response(sigma, p, omegas),
                           blocked_response(pk, p, omegas)) <= 1e-12

    def test_homogeneous_ensemble_with_unequal_damping(self):
        # criterion 4's case: complex poles
        pk = sample_ensemble(homogeneous_ensemble(g=12.95, j=3.46))
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.300,
                            gamma_b=6.433, gamma_d=0.493)
        omegas = FrequencyGrid(OMEGA_NV - 25, OMEGA_NV + 25, 1001).points()
        assert max_rel(mhom_response(pk, params, omegas),
                       blocked_response(pk, params, omegas)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 8, 16])
    @pytest.mark.parametrize("name", sorted(SMALL_ENSEMBLES))
    def test_small_ensembles(self, name, n):
        pk = sample_ensemble(SMALL_ENSEMBLES[name].with_(n_packets=n))
        omegas = np.linspace(OMEGA_NV - 25, OMEGA_NV + 25, 301)
        for gammas in ((0.2, 0.2), (0.05, 0.7), (3.0, 0.3)):
            params = REFERENCE_MHOM_PARAMS.with_(gamma_b=gammas[0],
                                                 gamma_d=gammas[1])
            assert max_rel(mhom_response(pk, params, omegas),
                           blocked_response(pk, params, omegas)) <= 1e-12

    def test_packets_near_a_double_root(self):
        # omega_b = omega_d and j = |gamma_d - gamma_b|/2 is a double pole;
        # nearby, the pole-form residues grow without bound
        gamma_b, gamma_d = 0.6, 0.2
        j0 = abs(gamma_d - gamma_b) / 2.0
        offsets = np.array([0.0, 1e-12, 1e-8, 1e-4, 1e-2, 0.5, -1e-10])
        n = len(offsets)
        pk = Packets(zeta=np.full(n, 13.0 / np.sqrt(n)),
                     omega_b=OMEGA_NV + np.array([0, 0, 0, 0, 0, 0, 1e-9]),
                     omega_d=np.full(n, OMEGA_NV),
                     j_zeeman=j0 * (1.0 + offsets), j_strain=np.zeros(n))
        params = REFERENCE_MHOM_PARAMS.with_(gamma_b=gamma_b,
                                             gamma_d=gamma_d)
        omegas = np.linspace(OMEGA_NV - 25, OMEGA_NV + 25, 401)
        got = mhom_response(pk, params, omegas)
        assert max_rel(got, blocked_response(pk, params, omegas)) <= 1e-12
        assert max_rel(got, dense_response(pk, params, omegas)) <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 400),
           lorentzian=st.booleans(), gamma_b=st.floats(0.02, 8.0),
           gamma_d=st.floats(0.02, 8.0), equal=st.booleans(),
           centre=st.floats(-30.0, 30.0), half=st.floats(0.1, 40.0),
           n_points=st.integers(1, 300))
    def test_matches_blocked_sum(self, seed, n, lorentzian, gamma_b,
                                 gamma_d, equal, centre, half, n_points):
        spec = REFERENCE_ENSEMBLE.with_(
            n_packets=n, seed=seed,
            distribution="lorentzian" if lorentzian else "gaussian")
        pk = sample_ensemble(spec)
        params = REFERENCE_MHOM_PARAMS.with_(
            gamma_b=gamma_b, gamma_d=gamma_b if equal else gamma_d)
        omegas = np.linspace(OMEGA_NV + centre - half,
                             OMEGA_NV + centre + half, n_points)
        assert max_rel(mhom_response(pk, params, omegas),
                       blocked_response(pk, params, omegas)) <= 1e-12

    def test_rejects_damping_other_than_its_own(self):
        pk = sample_ensemble(SMALL_ENSEMBLES["gaussian"])
        sigma = SelfEnergy(pk, 0.2, 0.2)
        with pytest.raises(ValueError):
            mhom_response(sigma, REFERENCE_MHOM_PARAMS.with_(gamma_d=0.3),
                          OMEGA_NV)

    def test_pole_on_the_real_axis_diverges(self):
        # without damping a frequency on a pole has no finite response
        pk = sample_ensemble(homogeneous_ensemble(g=10.0, j=2.0))
        params = REFERENCE_MHOM_PARAMS.with_(gamma_b=0.0, gamma_d=0.0)
        with pytest.raises(DivergentResponse):
            mhom_response(pk, params, OMEGA_NV + 2.0)

    def test_cauchy_zfs_average_is_thom_with_raised_damping(self):
        # averaging a response analytic in the upper half-plane over a
        # Cauchy-distributed zfs D_k (HWHM w) moves omega to omega + i w, so
        # the ensemble tends to THOM with gamma_b, gamma_d raised by w.  Each
        # packet's term is bounded by 1/gamma; its mean square over D_k is
        # at most 1/(gamma (gamma + w)), so |sigma_N - sigma| stays within 6
        # standard deviations, g^2 / sqrt(N gamma (gamma + w)) each
        g, j, gamma, fwhm = 1.0, 0.5, 0.5, 0.5
        w, n = fwhm / 2.0, 400_000
        omegas = np.linspace(OMEGA_NV - 4.0, OMEGA_NV + 4.0, 161)
        bound = 6.0 * g ** 2 / np.sqrt(n * gamma * (gamma + w))
        thom = SystemParams(omega_fq=OMEGA_NV, omega_nv=OMEGA_NV, g=g, j=j,
                            gamma_fq=0.5, gamma_b=gamma + w,
                            gamma_d=gamma + w)
        ref = thom_excitation(thom, omegas)
        # |c| = (lam/2)/|den|: a shift of den by at most `bound` moves |c|^2
        # by a factor within [(1 + x)^-2, (1 - x)^-2], x = bound/|den|
        x = bound * 2.0 * np.sqrt(ref) / thom.lam
        assert x.max() < 0.1
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.5, gamma_b=gamma,
                            gamma_d=gamma)
        unshifted = thom_excitation(
            thom.with_(gamma_b=gamma, gamma_d=gamma), omegas)
        assert np.any(np.abs(unshifted / ref - 1) > 1 / (1 - x) ** 2 - 1)
        for seed in range(5):
            spec = EnsembleSpec(n_packets=n, mean_zeeman=j, fwhm_zeeman=0.0,
                                fwhm_strain=0.0, fwhm_zfs=fwhm,
                                collective_g=g, omega_nv=OMEGA_NV,
                                seed=seed, distribution="lorentzian")
            got = mhom_response(sample_ensemble(spec), params, omegas)
            assert np.all(np.abs(got / ref - 1) <= 1 / (1 - x) ** 2 - 1)


class LoopSelfEnergy(SelfEnergy):
    """The former treecode evaluation, the oracle of SelfEnergy._tree_sum:
    the same traversal, then Horner with the moments gathered again at each
    step and the near field added one leaf pole at a time."""

    def _tree_sum(self, t):
        n = len(t)
        tgt = np.arange(n)
        node = np.zeros(n, dtype=np.intp)
        far_t, far_node = [], []
        for level in range(self._levels + 1):
            d = t[tgt] - self._centre[node]
            accept = self._radius[node] < _THETA * np.hypot(d.real, d.imag)
            far_t.append(tgt[accept])
            far_node.append(node[accept])
            tgt, node = tgt[~accept], node[~accept]
            if level < self._levels:
                tgt = np.repeat(tgt, 2)
                node = np.stack([2 * node + 1, 2 * node + 2], axis=1).ravel()
        far_t = np.concatenate(far_t)
        far_node = np.concatenate(far_node)
        d = t[far_t] - self._centre[far_node]
        ratio = self._scale[far_node] / d
        acc = self._moments[_TERMS - 1, far_node]
        for k in range(_TERMS - 2, -1, -1):
            acc = acc * ratio + self._moments[k, far_node]
        acc /= d
        re = np.bincount(far_t, acc.real, n)
        im = np.bincount(far_t, acc.imag, n)

        leaf = node - self._first_leaf
        near = np.zeros(len(tgt), dtype=complex)
        for p, a in zip(self._leaf_p, self._leaf_a):
            d = t[tgt] - p[leaf]
            if np.any(np.abs(d) < 1e-300):
                raise DivergentResponse("packet denominator vanished")
            near += a[leaf] / d
        return (re + np.bincount(tgt, near.real, n),
                im + np.bincount(tgt, near.imag, n))


class TestTreeSumOracle:
    """SelfEnergy's whole-stage array evaluation gives the bits of the
    per-pole, per-moment loop it replaced."""

    def assert_bit_identical(self, packets, gamma_b, gamma_d, omegas):
        got = SelfEnergy(packets, gamma_b, gamma_d)(omegas)
        ref = LoopSelfEnergy(packets, gamma_b, gamma_d)(omegas)
        assert np.array_equal(got.view(float), ref.view(float))

    def test_reference_ensemble_on_pipeline_grids(self):
        params = REFERENCE_MHOM_PARAMS
        omegas = np.concatenate([np.linspace(lo, hi, n) for lo, hi, _, n
                                 in pipeline_scans(REFERENCE_ENSEMBLE)])
        self.assert_bit_identical(sample_ensemble(REFERENCE_ENSEMBLE),
                                  params.gamma_b, params.gamma_d, omegas)

    @pytest.mark.parametrize("n", [1, 8, 16])
    @pytest.mark.parametrize("name", sorted(SMALL_ENSEMBLES))
    def test_small_ensembles(self, name, n):
        pk = sample_ensemble(SMALL_ENSEMBLES[name].with_(n_packets=n))
        omegas = np.linspace(OMEGA_NV - 25, OMEGA_NV + 25, 301)
        for gammas in ((0.2, 0.2), (6.433, 0.493), (0.05, 0.7)):
            self.assert_bit_identical(pk, *gammas, omegas)

    def test_call_of_several_chunks(self):
        # at the unequal damping a chunk also spans several near-field
        # blocks
        pk = sample_ensemble(REFERENCE_ENSEMBLE.with_(n_packets=2000))
        omegas = np.linspace(OMEGA_NV - 40, OMEGA_NV + 40, 3 * _CHUNK + 17)
        self.assert_bit_identical(pk, 0.2, 0.2, omegas)
        self.assert_bit_identical(pk, 6.433, 0.493, omegas)

    @pytest.mark.parametrize("n_packets", [8, 100])
    def test_pole_on_the_real_axis_diverges(self, n_packets):
        # every packet has its poles at omega_nv +- 2 exactly
        pk = sample_ensemble(homogeneous_ensemble(g=10.0, j=2.0,
                                                  n_packets=n_packets))
        omegas = np.array([OMEGA_NV - 5.0, OMEGA_NV + 2.0, OMEGA_NV + 5.0])
        for cls in (SelfEnergy, LoopSelfEnergy):
            with pytest.raises(DivergentResponse):
                cls(pk, 0.0, 0.0)(omegas)


class TestSpectrum:
    def test_normalized_lineshape_independent_of_drive(self):
        pk = sample_ensemble(REFERENCE_ENSEMBLE.with_(n_packets=2000))
        grid = FrequencyGrid(OMEGA_NV - 20, OMEGA_NV + 20, 101)
        s1 = mhom_response(pk, REFERENCE_MHOM_PARAMS, grid.points())
        s20 = mhom_response(pk, REFERENCE_MHOM_PARAMS.with_(lam=20.0),
                            grid.points())
        assert np.allclose(s20 / 400.0, s1, rtol=1e-12)

    def test_side_peak_separation_near_27(self):
        pk = sample_ensemble(REFERENCE_ENSEMBLE)
        grid = FrequencyGrid(OMEGA_NV - 25, OMEGA_NV + 25, 2001)
        spec = Spectrum(grid=grid, values=mhom_response(
            pk, REFERENCE_MHOM_PARAMS, grid.points()), model_tag="MHOM")
        peaks = find_peaks(spec, min_prominence=0.1 * spec.values.max())
        assert len(peaks) == 3
        assert peaks[2].omega - peaks[0].omega == pytest.approx(27.0, abs=1.0)

    def test_seed_stability_on_peak_window(self):
        # disjoint seeds at N=36000 self-average on the window containing
        # the three-peak structure; single-packet features far outside it
        # do not and are excluded
        gaussian = REFERENCE_ENSEMBLE.with_(mean_zeeman=28.0,
                                        distribution="gaussian",
                                        hyperfine=0.0, seed=11)
        grid = FrequencyGrid(OMEGA_NV - 20, OMEGA_NV + 20, 161)
        s1 = mhom_response(sample_ensemble(gaussian), REFERENCE_MHOM_PARAMS,
                           grid.points())
        s2 = mhom_response(sample_ensemble(gaussian.with_(seed=12)),
                           REFERENCE_MHOM_PARAMS, grid.points())
        rel = np.abs(s1 - s2) / np.maximum(s1, s2)
        assert rel.max() < 0.02


def reference_shifts(deltas):
    return mhom_middle_peak_shift(
        REFERENCE_ENSEMBLE, REFERENCE_MHOM_PARAMS,
        sampled_self_energy(REFERENCE_ENSEMBLE, REFERENCE_MHOM_PARAMS),
        deltas)


class TestMiddlePeakShift:
    def test_zero_detuning_zero_shift(self):
        shifts = reference_shifts([0.0])
        assert shifts[0][1] == pytest.approx(0.0, abs=0.01)

    def test_slope_matches_quoted_ratio(self):
        shifts = reference_shifts([2.0, 6.0, 10.0])
        d = np.array([s[0] for s in shifts])
        s = np.array([s[1] for s in shifts])
        slope = d @ s / (d @ d)
        assert slope == pytest.approx(0.067, abs=0.01)

    def test_slope_matches_eigenvalue_prediction(self):
        g, j = 10.0, 2.0
        ens = homogeneous_ensemble(g=g, j=j)
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.01,
                            gamma_b=0.05, gamma_d=0.05)
        shifts = mhom_middle_peak_shift(ens, params,
                                        sampled_self_energy(ens, params),
                                        [0.5, 1.0, 1.5])
        d = np.array([s[0] for s in shifts])
        s = np.array([s[1] for s in shifts])
        slope = d @ s / (d @ d)
        assert slope == pytest.approx(j ** 2 / (g ** 2 + j ** 2), abs=0.01)

    def test_guard_on_detuning_range(self):
        with pytest.raises(PeaksNotResolved):
            reference_shifts([20.0])


def scalar_locate_peak(sigma, params, omega_fq, lo, hi):
    """The former refinement of one window, the oracle of locate_peak: the
    scan in one call, then a golden-section search that calls the
    SelfEnergy on one frequency at a time.  Returns (peak, evaluations)."""
    p = params.with_(omega_fq=omega_fq)
    omegas = np.linspace(lo, hi, PEAK_SCAN_POINTS)
    i = int(np.argmax(mhom_response(sigma, p, omegas)))
    h = omegas[1] - omegas[0]
    return scalar_golden_section_max(lambda w: mhom_response(sigma, p, w),
                                     omegas[i] - h, omegas[i] + h)


def pipeline_windows(spec, deltas):
    """The windows of estimate.estimate_separation and of
    estimate.mhom_middle_peak_shift."""
    nv, cg = spec.omega_nv, spec.collective_g
    side = [(nv, nv - 2.0 * cg, nv - 0.4 * cg), (nv, nv + 0.4 * cg,
                                                 nv + 2.0 * cg)]
    middle = [(nv + d, nv - 0.3 * abs(d) - 0.5, nv + 0.3 * abs(d) + 0.5)
              for d in deltas]
    return side, middle


class TestLockstepRefinement:
    """locate_peak refines all windows together; each lane must give the
    bits of a scalar search of its own window."""

    def assert_matches_scalar_searches(self, sigma, params, windows):
        report = {}
        got = locate_peak(sigma, params, windows, report)
        ref = [scalar_locate_peak(sigma, params, *w) for w in windows]
        assert np.array_equal(got, [peak for peak, _ in ref])
        counts = [n for _, n in ref]
        assert report["golden_section_evaluations"] == sum(counts)
        return counts

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_reference_ensemble(self, seed):
        spec = REFERENCE_ENSEMBLE.with_(seed=seed)
        params = REFERENCE_MHOM_PARAMS
        sigma = SelfEnergy(sample_ensemble(spec), params.gamma_b,
                           params.gamma_d)
        for windows in pipeline_windows(spec, DEFAULT_DELTAS):
            self.assert_matches_scalar_searches(sigma, params, windows)

    def test_round_trip_ensemble(self):
        spec = homogeneous_ensemble(g=10.0, j=2.0)
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.002, gamma_b=0.01,
                            gamma_d=0.01)
        sigma = SelfEnergy(sample_ensemble(spec), 0.01, 0.01)
        for windows in pipeline_windows(spec, (0.05, 0.10, 0.15)):
            self.assert_matches_scalar_searches(sigma, params, windows)

    def test_lanes_of_different_widths(self):
        spec = homogeneous_ensemble(g=10.0, j=2.0)
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.05, gamma_b=0.1,
                            gamma_d=0.1)
        sigma = SelfEnergy(sample_ensemble(spec), 0.1, 0.1)
        windows = [(OMEGA_NV, OMEGA_NV - 0.01, OMEGA_NV + 0.02),
                   (OMEGA_NV, OMEGA_NV - 15.0, OMEGA_NV - 4.0),
                   (OMEGA_NV + 1.0, OMEGA_NV - 2.0, OMEGA_NV + 3.0),
                   (OMEGA_NV, OMEGA_NV + 9.0, OMEGA_NV + 10.9)]
        counts = self.assert_matches_scalar_searches(sigma, params, windows)
        assert len(set(counts)) > 1

    def test_takes_a_self_energy_only(self):
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.05, gamma_b=0.1,
                            gamma_d=0.1)
        packets = sample_ensemble(homogeneous_ensemble())
        with pytest.raises(AttributeError):
            locate_peak(packets, params,
                        [(OMEGA_NV, OMEGA_NV - 15.0, OMEGA_NV - 4.0)])

    def test_rejects_damping_other_than_its_own(self):
        sigma = SelfEnergy(sample_ensemble(homogeneous_ensemble()), 0.1, 0.1)
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.05, gamma_b=0.1,
                            gamma_d=0.2)
        with pytest.raises(ValueError, match="self-energy built at"):
            locate_peak(sigma, params,
                        [(OMEGA_NV, OMEGA_NV - 15.0, OMEGA_NV - 4.0)])

    def test_window_without_interior_maximum(self):
        sigma = SelfEnergy(sample_ensemble(homogeneous_ensemble()), 0.1, 0.1)
        params = MhomParams(omega_fq=OMEGA_NV, gamma_fq=0.05, gamma_b=0.1,
                            gamma_d=0.1)
        with pytest.raises(PeaksNotResolved, match="2880.0, 2881.0"):
            locate_peak(sigma, params, [(OMEGA_NV, OMEGA_NV - 1, OMEGA_NV + 1),
                                        (OMEGA_NV, OMEGA_NV + 2,
                                         OMEGA_NV + 3)])
