//! Regenerates Figure 2: exhaustive bit-flip sweeps over every Thumb
//! conditional branch under the AND / OR / AND-with-invalid-zero models.
//! A thin client of the campaign engine.

use std::process::ExitCode;

fn main() -> ExitCode {
    gd_bench::artifact_main(|| {
        let result = gd_campaign::Engine::ephemeral()
            .run(&gd_campaign::CampaignSpec::fig2())
            .expect("campaign runs");
        gd_bench::emit(&result.text);
    })
}
