//! Regenerates Table III: long glitches (0..10 through 0..20 cycles)
//! against the doubled loop guards. A thin client of the campaign
//! engine.

use std::process::ExitCode;

fn main() -> ExitCode {
    gd_bench::artifact_main(|| {
        let result = gd_campaign::Engine::ephemeral()
            .run(&gd_campaign::CampaignSpec::table3())
            .expect("campaign runs");
        gd_bench::emit(&result.text);
    })
}
