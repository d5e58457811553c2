"""The bytes of whole runs, pinned: every ``Trace`` field of a fixed set of runs.

The bit tests elsewhere compare ``run()`` with a plain replay on small problems;
this pins the traces themselves on the shapes the benchmark runs (toy100 with
four workers, lasso 60x200 and 300x1000 with three), so a change that keeps
every call but moves one bit of one record fails here.  It pins the output of two
``reference_solution`` solves too: the benchmark's 300x1000 one and a 60x200 one that
stops on its tolerance.  Dot products and matrix products go through BLAS, so the
digests are pinned per OpenBLAS kernel.
"""

import dataclasses
import hashlib

import numpy as np

from ipiag import (
    LassoSpec,
    RateInputs,
    SolverParams,
    ToySpec,
    Trace,
    certificate_for,
    lasso_arrays,
    make_lasso,
    make_toy,
    reference_solution,
    run,
    schedule_uniform_single,
    spectral_norm_sq,
)

from .test_scripts import blas_kernel

K, SEEDS = 300, (0, 1)


def trace_digest(trace):
    """SHA-256 over every field of a trace: name, then dtype, shape and bytes of an array."""
    digest = hashlib.sha256()
    for field in dataclasses.fields(Trace):
        value = getattr(trace, field.name)
        digest.update(field.name.encode())
        if value is None:
            digest.update(b"None")
        elif isinstance(value, np.ndarray):
            digest.update(f"{value.dtype.str}{value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(np.float64(value).tobytes())
    return digest.hexdigest()


def toy_cases():
    """The benchmark's four toy variants (criterion 2's certificates) from two starts."""
    prob = make_toy(ToySpec(num_components=100))
    L, beta, tau, c1 = prob.total_lipschitz, prob.growth_constant, 4, 0.49
    alpha = certificate_for("t1", RateInputs(L, beta, tau, c1)).alpha
    certs = {
        "plain": certificate_for("t1", RateInputs(L, beta, tau, 0.0), alpha=alpha, eta2=0.0),
        "pre": certificate_for("cor1", RateInputs(L, beta, tau, c1), alpha=alpha),
        "post": certificate_for("cor2", RateInputs(L, beta, tau, 0.0), alpha=alpha),
        "both": certificate_for("t1", RateInputs(L, beta, tau, c1), alpha=alpha),
    }
    # the benchmark starts at 0, where only coordinate 0 leaves the orthant's corner; a
    # mixed-sign start moves every coordinate and puts signed zeros through the prox
    starts = {"zero": np.zeros(100), "mixed": np.random.default_rng(3).standard_normal(100)}
    for seed in SEEDS:
        schedule = schedule_uniform_single(4, tau, K, seed)
        for start, x0 in starts.items():
            for variant, cert in certs.items():
                params = SolverParams(alpha=cert.alpha, eta1=cert.eta1, eta2=cert.eta2,
                                      max_iters=K)
                yield f"toy100/{variant}/{start}/seed{seed}", run(prob, params, schedule, x0)


def lasso_cases():
    """Plain and doubly inertial lasso runs, measured from the planted vector: criterion 9's
    60x200 instance, and the benchmark's 300x1000 one at its step 0.3 / ||A||^2."""
    for rows, cols in ((60, 200), (300, 1000)):
        spec = LassoSpec(rows=rows, cols=cols, sparsity=0.1, l1_weight=0.2, seed=7)
        prob, (a, _, x_true) = make_lasso(spec), lasso_arrays(spec)
        alpha = 1e-3 if rows == 60 else 0.3 / spectral_norm_sq(a)
        variants = {"plain": SolverParams(alpha=alpha, max_iters=K),
                    "double": SolverParams(alpha=alpha, eta1=0.25, eta2=0.25, max_iters=K)}
        for seed in SEEDS:
            schedule = schedule_uniform_single(3, 4, K, seed)
            for variant, params in variants.items():
                yield (f"lasso{rows}x{cols}/{variant}/seed{seed}",
                       run(prob, params, schedule, np.zeros(prob.dimension), x_ref=x_true))


def reference_digests():
    """SHA-256 of the bytes of (z_final, phi) of two reference solves at alpha = 1 / ||A||^2:
    the benchmark's 300x1000 one (1000 steps, tol 0) and a 60x200 one that stops on tol."""
    for rows, cols, iters, tol in ((60, 200, 5000, 5e-4), (300, 1000, 1000, 0.0)):
        spec = LassoSpec(rows=rows, cols=cols, sparsity=0.1, l1_weight=0.2, seed=7)
        a, _, _ = lasso_arrays(spec)
        z, phi = reference_solution(make_lasso(spec), 1.0 / spectral_norm_sq(a), iters, tol)
        digest = hashlib.sha256(z.tobytes() + np.float64(phi).tobytes()).hexdigest()
        yield f"reference/lasso{rows}x{cols}", digest


def digests():
    got = {name: trace_digest(trace) for cases in (toy_cases, lasso_cases)
           for name, trace in cases()}
    return {**got, **dict(reference_digests())}


# SHA-256 per run, taken with numpy 2.4's OpenBLAS wheel, each kernel forced with
# OPENBLAS_CORETYPE, at 2 BLAS threads.  The last bit of spectral_norm_sq of the 300x1000
# matrix moves with the thread count (SkylakeX: 3 and 4 threads; Haswell: 1 and 3), and
# the 300x1000 digests move with it
TRACE_DIGESTS = {
    "SkylakeX": {
        "toy100/plain/zero/seed0":
            "528c3ffd9ab97faaf851ca0b89015add5950e21f950f0b9cf2ed8e66e96ace67",
        "toy100/pre/zero/seed0":
            "7ae59e8ac503588df6f70f67456870608b6a1968705121028561fb2ded17347c",
        "toy100/post/zero/seed0":
            "adf802e79c36a8d5b2e268934d01f90d99b534ce2bba89a3263ba2f72e43e0b7",
        "toy100/both/zero/seed0":
            "304fec112ac3961b51ba7b545d6fe81b8d95c12121433a4c8aec6d8ffa6e9b06",
        "toy100/plain/mixed/seed0":
            "5f22c84557a28e8171f081a60fb7d01269de26f4a51aaf428db7d5e84e1691fe",
        "toy100/pre/mixed/seed0":
            "122580108286ab4ceaccee76bc7bcd77aa33e00f704a3bb44c129ebaf138b940",
        "toy100/post/mixed/seed0":
            "fd15345e1f12d06cd037fb1870d46f4c02fd0db600a29f032b68c359d34d8d7f",
        "toy100/both/mixed/seed0":
            "5f977cb8d771c13743e0b306c483c1dfa2cc57992f4d8e8f39af0b5bf47e3c0a",
        "toy100/plain/zero/seed1":
            "b3e4b47586f01d26e60359dc814e2aa1b5b8e614d146ca1b82a2ea7c717a213e",
        "toy100/pre/zero/seed1":
            "67b914cf35ce93361b34f083e368a5b317d299b04c722f4d086e1acf3d680f7c",
        "toy100/post/zero/seed1":
            "4140ac0f649ca4082d6252802a22c6777dd790740b23de2a9221098cf64b24bf",
        "toy100/both/zero/seed1":
            "3b25585cf9c7953d8cde8a9de3562b9bed2838b75407ab12dccca7948b11d626",
        "toy100/plain/mixed/seed1":
            "c792859a007c7eb2e28a2b4036a134dd437451410c8ada8bc6c3537626f126e0",
        "toy100/pre/mixed/seed1":
            "18cb3880aebfb1abe9b3a99a17a19856dc56af11c6fc8fcef2ff60d77822c33e",
        "toy100/post/mixed/seed1":
            "db48e3d00d4977e066cfddd3cb5a4bf94d21abeeed0dcab71456d18f1cad7aa1",
        "toy100/both/mixed/seed1":
            "858113b6ff7fe713aa8cabcbd853cd2aacdca308dcaa0355d8470c9b8cc6e2eb",
        "lasso60x200/plain/seed0":
            "e549e7cbd85d4a25263c3ab9bfe69e1aa450209f87f72f4d10c61e223f185f24",
        "lasso60x200/double/seed0":
            "e1d1bf73ceada63b8eaa5622fa0a8a187003902b3b993b6d8e561dba43b765f3",
        "lasso60x200/plain/seed1":
            "47e2666f15903e31133dc93e45015999ecd31075561ffb6fdef1e687e49b55eb",
        "lasso60x200/double/seed1":
            "d2cb8808ad3323684de703fce90c7543239893529e1e23091da4fa615b7d42ff",
        "lasso300x1000/plain/seed0":
            "7806c9db18cd05f999f57c0774e10aa48478588684759a0b44462c81d79b706a",
        "lasso300x1000/double/seed0":
            "4957656c7412ed5d11a064bc32a0668c5f8393d2bb8422116a1a3bf0aecefe27",
        "lasso300x1000/plain/seed1":
            "3f040e52da217d85085209a147971f95fca32387c5af0f683aa5e453bf948e15",
        "lasso300x1000/double/seed1":
            "17a4c64ffa9f02f698ea4bd5a0e55e1cea0b378d5dd2236499c9fb5a7b6d4958",
        "reference/lasso60x200":
            "31fabbf2b51d3c66b9acf731410af8287af0ecdaeb2505167840d5033265a85a",
        "reference/lasso300x1000":
            "98fdaf780131e1d106d7b3672b1fd719fb4d91b5e2569cbc5a8b0212be250488",
    },
    "Haswell": {
        "toy100/plain/zero/seed0":
            "528c3ffd9ab97faaf851ca0b89015add5950e21f950f0b9cf2ed8e66e96ace67",
        "toy100/pre/zero/seed0":
            "7ae59e8ac503588df6f70f67456870608b6a1968705121028561fb2ded17347c",
        "toy100/post/zero/seed0":
            "adf802e79c36a8d5b2e268934d01f90d99b534ce2bba89a3263ba2f72e43e0b7",
        "toy100/both/zero/seed0":
            "304fec112ac3961b51ba7b545d6fe81b8d95c12121433a4c8aec6d8ffa6e9b06",
        "toy100/plain/mixed/seed0":
            "8f0941ddd35d71a56a5f314f9787e2ae695f0735842c70087c6b11c8cdc5d3bf",
        "toy100/pre/mixed/seed0":
            "7cdadc118b543573672fafb2f77103391c7b275db056dded07f7d2418f3c45a6",
        "toy100/post/mixed/seed0":
            "7cec9530c9340ae30961d127a3de09b667b563511f8446a983bd34897c253653",
        "toy100/both/mixed/seed0":
            "5987b572cf8b328f998a4f1aadc25ff92e921e3f22eba83dc5e4187e8fcde128",
        "toy100/plain/zero/seed1":
            "b3e4b47586f01d26e60359dc814e2aa1b5b8e614d146ca1b82a2ea7c717a213e",
        "toy100/pre/zero/seed1":
            "67b914cf35ce93361b34f083e368a5b317d299b04c722f4d086e1acf3d680f7c",
        "toy100/post/zero/seed1":
            "4140ac0f649ca4082d6252802a22c6777dd790740b23de2a9221098cf64b24bf",
        "toy100/both/zero/seed1":
            "3b25585cf9c7953d8cde8a9de3562b9bed2838b75407ab12dccca7948b11d626",
        "toy100/plain/mixed/seed1":
            "29232357d5d95d89169e294a4bb6709fe6e8b71c2148da41b36c97382b4a83d6",
        "toy100/pre/mixed/seed1":
            "a75fe234ad3dee4fcf8a8d60af3b6e626863ec29edde47462e293fd89f06a828",
        "toy100/post/mixed/seed1":
            "e64fcfc77a6009996b7fc93e64477f858f496022b3481fa95d534c888e1612f0",
        "toy100/both/mixed/seed1":
            "27b0fc1971e49ded6f293ede0f6aed618e60755af58de80faa2d5599d13ff35b",
        "lasso60x200/plain/seed0":
            "15caf1b61141933696c96f14e20bf8adcecc9949ea49e7f809426d56e080c774",
        "lasso60x200/double/seed0":
            "d4208706f5e07ea0ee46f4c7fb1e270970e4d59d1c2625f11800e8b7d71bd9b9",
        "lasso60x200/plain/seed1":
            "047bd985b5a2eb13cb571537dd0f1718b679fe36e0e8205e1b236a110447d40c",
        "lasso60x200/double/seed1":
            "27c234d10e8a0f3a8ac40dcf0a02a742a76b8933e9702131c199c8a38afd21b4",
        "lasso300x1000/plain/seed0":
            "97f0240af106717775d7a856a3e28bc8926e5776b5dbbd7d60c992065c15f4c3",
        "lasso300x1000/double/seed0":
            "5e9628196b41f3dd8907fa1b055f9fced38a0b8ba644a42e55ca4d9600a9080c",
        "lasso300x1000/plain/seed1":
            "074380d69330ce6ea36a7bfe01d9352e3bc17a619d28e70ce6be5e26a83a08d2",
        "lasso300x1000/double/seed1":
            "4c64cd288b30fe669cc8840da1f35bfc2cb6ab55f01c89cf910fd163c984a10f",
        "reference/lasso60x200":
            "4e54af54b6af51e85aeaa398c5eb9ab54d5dbbb2cd17187689e8344d7c1fd8bb",
        "reference/lasso300x1000":
            "1e14936614a84f4778aca0f5c0df6027df1eb99040839d818f20f0e220970f8a",
    },
}


def test_every_trace_keeps_its_bytes():
    kernel, got = blas_kernel(), digests()
    # a kernel with no pinned digest fails: a digest that is compared with nothing shows nothing
    assert kernel in TRACE_DIGESTS, f"no trace digests pinned for BLAS kernel {kernel}: got {got}"
    want = TRACE_DIGESTS[kernel]
    assert got.keys() == want.keys()
    moved = {name: got[name] for name in want if got[name] != want[name]}
    assert not moved, f"on kernel {kernel} these traces changed bytes: {moved}"
