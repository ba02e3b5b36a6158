//! `gd_ingest_*` metric families: ingestion volume counters labelled by
//! container format.

use std::sync::Arc;

use gd_obs::Counter;

use crate::{Format, Ingested};

fn format_counter(name: &str, help: &str, format: &str) -> Arc<Counter> {
    gd_obs::counter(name, help, &[("format", format)])
}

/// Images successfully ingested from `format` containers.
pub fn images(format: &str) -> Arc<Counter> {
    format_counter(
        "gd_ingest_images_total",
        "firmware images successfully ingested, by container format",
        format,
    )
}

/// Text bytes loaded from `format` containers.
pub fn text_bytes(format: &str) -> Arc<Counter> {
    format_counter(
        "gd_ingest_text_bytes_total",
        "text bytes loaded from ingested images, by container format",
        format,
    )
}

/// Routine extents inferred over `format` images.
pub fn extents(format: &str) -> Arc<Counter> {
    format_counter(
        "gd_ingest_extents_total",
        "routine extents inferred over ingested images, by container format",
        format,
    )
}

/// Literal-pool bytes excluded from code regions of `format` images.
pub fn pool_bytes(format: &str) -> Arc<Counter> {
    format_counter(
        "gd_ingest_pool_bytes_total",
        "literal-pool bytes excluded from code regions by extent inference, by container format",
        format,
    )
}

/// Records one successful ingestion into every family.
pub fn record(ing: &Ingested) {
    let f = ing.format.label();
    images(f).add(1);
    text_bytes(f).add(ing.image.text.len() as u64);
    extents(f).add(ing.image.extents.len() as u64);
    pool_bytes(f).add(u64::from(ing.pool_bytes()));
}

/// Registers every `gd_ingest_*` family at zero for both container
/// formats, so `/metrics` shows the full inventory before any image is
/// ingested.
pub fn register_metrics() {
    for format in [Format::Bin, Format::Elf] {
        let f = format.label();
        let _ = images(f);
        let _ = text_bytes(f);
        let _ = extents(f);
        let _ = pool_bytes(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_exposes_every_family_for_both_formats() {
        register_metrics();
        let text = gd_obs::global().render_prometheus();
        for family in [
            "# TYPE gd_ingest_images_total counter",
            "# TYPE gd_ingest_text_bytes_total counter",
            "# TYPE gd_ingest_extents_total counter",
            "# TYPE gd_ingest_pool_bytes_total counter",
        ] {
            assert!(text.contains(family), "missing {family:?}");
        }
        assert!(text.contains(r#"gd_ingest_images_total{format="bin"}"#));
        assert!(text.contains(r#"gd_ingest_pool_bytes_total{format="elf"}"#));
    }
}
