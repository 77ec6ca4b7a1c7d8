//! Pins the value of every stable fingerprint. They key the run store's
//! regression groups (`results/runs.jsonl`), the committed run-record
//! golden and the scenario smoke in `ci.sh`, so a change to the shared
//! hasher (`tictac_graph::Fnv1a`) or to any owner's byte encoding must
//! fail here, not as silent "new group, no history" in the store.

use tictac::{tiny_mlp, CommConfig, FaultSpec, Mode, Model, Scenario};

#[test]
fn fingerprints_keep_their_recorded_values() {
    let comm = CommConfig::default()
        .with_partition_bytes(Some(4 << 20))
        .with_fusion_bytes(Some(64 << 10));
    let scenario = |file: &str| {
        let path = format!("{}/examples/scenarios/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("committed example scenario");
        Scenario::parse(&text)
            .expect("committed example parses")
            .fingerprint()
    };
    let table: [(&str, u64, u64); 7] = [
        ("default CommConfig", CommConfig::default().fingerprint(), 0),
        (
            "4 MiB / 64 KiB CommConfig",
            comm.fingerprint(),
            0xb194_52ca_b9fb_213d,
        ),
        (
            "FaultSpec::none()",
            FaultSpec::none().fingerprint(),
            0xb815_eafa_d4fb_89ac,
        ),
        (
            "vgg19_hetero.yml",
            scenario("vgg19_hetero.yml"),
            0xa06c_e014_9c6c_09a7,
        ),
        (
            "autotune.yml (non-default comm)",
            scenario("autotune.yml"),
            0x8391_95fb_c954_54ff,
        ),
        (
            "tiny_mlp",
            tiny_mlp(Mode::Training, 8).fingerprint(),
            0x85ae_f7c8_4f53_a5d6,
        ),
        (
            "alexnet_v2",
            Model::AlexNetV2
                .build_with_batch(Mode::Training, 2)
                .fingerprint(),
            0x47ef_f76f_b31f_773e,
        ),
    ];
    for (what, got, want) in table {
        assert_eq!(got, want, "{what}: got {got:#018x}, pinned {want:#018x}");
    }
}
