//! Regenerates the exhaustive multi-fault campaign over `firmware::boot`:
//! first-order sweeps of every registry fault model plus the second-order
//! distinct-site pair space, with architectural-effect pruning. A thin
//! client of the campaign engine.

use std::process::ExitCode;

fn main() -> ExitCode {
    gd_bench::artifact_main(|| {
        let result = gd_campaign::Engine::ephemeral()
            .run(&gd_campaign::CampaignSpec::multifault())
            .expect("campaign runs");
        gd_bench::emit(&result.text);
    })
}
