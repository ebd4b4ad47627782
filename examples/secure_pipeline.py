"""End-to-end data protection in the EVEREST SDK (paper §III-A, §IV).

A pipeline processing confidential medical-grade sensor data:

1. security annotations on the source force DIFT-instrumented
   variants at compile time (TaintHLS-style hardware tracking);
2. at run time, inter-task flow tracking labels every derived object
   and blocks unencrypted egress;
3. the AEAD crypto layer protects the one export that is allowed;
4. a timing-channel attack is injected; the hardware monitors detect
   it and auto-protection reacts (forced DIFT, then rekey on a tag
   mismatch).

Run with:  python examples/secure_pipeline.py
"""

from repro.core.compiler import EverestCompiler
from repro.core.dse.space import DesignSpace
from repro.core.dsl.annotations import (
    SecurityAnnotation,
    Sensitivity,
)
from repro.core.dsl.workflow import Pipeline
from repro.core.ir import F32, TensorType
from repro.errors import SecurityError
from repro.runtime.dataprotection.anomaly import HardwareMonitor
from repro.runtime.dataprotection.crypto import (
    SoftwareAEAD,
    derive_key,
)
from repro.runtime.dataprotection.ift import FlowTracker
from repro.runtime.dataprotection.policy import AutoProtection
from repro.utils.rng import deterministic_rng
from repro.workflow.plan import build_task_graph

KERNELS = """
kernel detrend(X: tensor<256xf32>, B: tensor<256xf32>)
        -> tensor<256xf32> {
  Y = X - B
  return Y
}
kernel classify(X: tensor<256xf32>, W: tensor<256xf32>)
        -> tensor<1xf32> {
  S = sum(sigmoid(X * W))
  return S
}
"""


def main() -> None:
    # -- 1. compile with security annotations --------------------------
    pipeline = Pipeline("vitals")
    vitals = pipeline.source(
        "vitals", TensorType((256,), F32),
        security=SecurityAnnotation(
            sensitivity=Sensitivity.SECRET,
            encrypt_in_transit=True,
        ),
    )
    baseline = pipeline.source("baseline", TensorType((256,), F32))
    weights = pipeline.source("weights", TensorType((256,), F32))
    clean = pipeline.task("detrend", KERNELS, inputs=[vitals, baseline])
    score = pipeline.task("classify", KERNELS,
                          inputs=[clean.output(0), weights])
    pipeline.sink("risk-score", score.output(0))

    app = EverestCompiler(space=DesignSpace.small()).compile(pipeline)
    print("=== compile-time protection ===")
    print(f"sensitive kernels: {sorted(app.sensitive_kernels)}")
    for kernel in app.package.kernels():
        variants = app.package.variants_for(kernel)
        print(f"  {kernel}: {len(variants)} variants, "
              f"all DIFT: {all(v.knobs.dift for v in variants)}")

    # -- 2. runtime flow tracking --------------------------------------
    graph = build_task_graph(app)
    tracker = FlowTracker(graph)
    tracker.taint_source("vitals", "patient")
    tracker.propagate()
    print("\n=== flow tracking ===")
    for name, labels in tracker.audit():
        print(f"  {name}: labels {sorted(labels)}")

    leak_blocked = False
    try:
        tracker.check_egress("detrend.out0", encrypted=False)
    except SecurityError as exc:
        leak_blocked = True
        print(f"  BLOCKED unencrypted export: {exc}")
    assert leak_blocked

    # -- 3. the allowed export goes out encrypted ----------------------
    aead = SoftwareAEAD(key=derive_key(b"site-master", "vitals-export"))
    payload = b"risk-score: 0.82"
    ciphertext = aead.encrypt(payload, b"export-0001")
    assert tracker.check_egress("classify.out0", encrypted=True)
    roundtrip = aead.decrypt(ciphertext, b"export-0001")
    print("\n=== encrypted export ===")
    print(f"  payload {payload!r} -> {len(ciphertext)} bytes "
          f"(AEAD), decrypts OK: {roundtrip == payload}")

    # -- 4. attack detection and auto-protection -----------------------
    print("\n=== attack detection ===")
    monitor = HardwareMonitor(threshold_sigma=4.5, min_training=32)
    protection = AutoProtection()
    rng = deterministic_rng("secure-example")
    for _ in range(128):
        monitor.train("classify.timing",
                      float(rng.normal(50.0, 2.0)))
    monitor.freeze()

    # timing-channel attack: a co-tenant modulates our latency
    detections = 0
    for step in range(20):
        latency = float(rng.normal(50.0, 2.0))
        if step >= 10:
            latency += 35.0  # the attack signature
        anomaly = monitor.observe("classify.timing", latency)
        if anomaly is not None:
            detections += 1
            protection.report_anomaly(anomaly, node="power9-0")
    print(f"  detections: {detections}, DIFT forced: "
          f"{protection.dift_forced}")

    # an exfiltration attempt tampers with a stored ciphertext
    tampered = bytearray(ciphertext)
    tampered[3] ^= 0x40
    try:
        aead.decrypt(bytes(tampered), b"export-0001")
    except SecurityError:
        protection.report("tag-mismatch", "stored export tampered")
        print(f"  tampering detected -> key generation now "
              f"{protection.key_generation}")
    print(f"  incident summary: {protection.summary()}")


if __name__ == "__main__":
    main()
