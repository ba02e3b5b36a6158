//! Regenerates Table I: single-glitch scans (8 cycles × 9,801 parameter
//! combinations) against the three §V loop guards, with post-mortems.
//! A thin client of the campaign engine.

use std::process::ExitCode;

fn main() -> ExitCode {
    gd_bench::artifact_main(|| {
        let result = gd_campaign::Engine::ephemeral()
            .run(&gd_campaign::CampaignSpec::table1())
            .expect("campaign runs");
        print!("{}", result.text);
    })
}
