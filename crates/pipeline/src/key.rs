//! Artifact-key construction: a [`KeyBuilder`] feeds every input that can
//! change a stage's output — workload identity and build params, tracer
//! configuration, core configuration, BSA subset, schema version, and crate
//! version — into a SHA-256 digest, field by labeled field.
//!
//! Any representational change (new field, changed default, new schema)
//! must bump [`KEY_SCHEMA_VERSION`]; old artifacts then miss instead of
//! being silently reused. The on-disk *file* envelope carries its own
//! [`SCHEMA_VERSION`] — see the store — so the envelope can evolve without
//! invalidating warm caches whose key derivation is unchanged. Traces have
//! no key of their own: they are re-simulated, never stored.

use std::fmt::Display;

use prism_sim::TracerConfig;
use prism_tdg::BsaKind;
use prism_udg::CoreConfig;

use crate::hash::{ContentHash, Sha256};

/// Bumped whenever the *key derivation* changes (new field, changed
/// default, changed semantics of an existing artifact payload). Folded
/// into every key; bumping it orphans all previously stored artifacts.
pub const KEY_SCHEMA_VERSION: u32 = 1;

/// The on-disk artifact *envelope* version, the only one the store reads:
/// `{schema, key, sum, payload}` with a mandatory payload checksum. Files
/// with schema 1 or without a `sum` are discarded and recomputed.
pub const SCHEMA_VERSION: u32 = 2;

/// Incrementally builds a content hash from labeled fields.
#[derive(Debug, Clone)]
pub struct KeyBuilder {
    h: Sha256,
}

impl KeyBuilder {
    /// Starts a key in `domain` (e.g. `"workload"`, `"design-result"`).
    /// The schema version and crate version are always folded in.
    #[must_use]
    pub fn new(domain: &str) -> Self {
        let mut kb = KeyBuilder { h: Sha256::new() };
        kb.field("domain", domain);
        kb.field("schema", KEY_SCHEMA_VERSION);
        kb.field("crate", env!("CARGO_PKG_VERSION"));
        kb
    }

    /// Feeds one labeled field.
    pub fn field(&mut self, name: &str, value: impl Display) {
        self.h.update_str(name);
        self.h.update_str("=");
        self.h.update_str(&value.to_string());
        self.h.update_str("\n");
    }

    /// Feeds a previously computed hash as a field.
    pub fn hash_field(&mut self, name: &str, hash: &ContentHash) {
        self.field(name, hash.hex());
    }

    /// Feeds the full tracer configuration.
    pub fn tracer(&mut self, cfg: &TracerConfig) {
        self.field("tracer.max_insts", cfg.max_insts);
        self.field("tracer.fast_forward", cfg.fast_forward);
        self.field("tracer.l1d.size_bytes", cfg.l1d.size_bytes);
        self.field("tracer.l1d.ways", cfg.l1d.ways);
        self.field("tracer.l1d.line_bytes", cfg.l1d.line_bytes);
        self.field("tracer.l1d.hit_latency", cfg.l1d.hit_latency);
        self.field("tracer.l2.size_bytes", cfg.l2.size_bytes);
        self.field("tracer.l2.ways", cfg.l2.ways);
        self.field("tracer.l2.line_bytes", cfg.l2.line_bytes);
        self.field("tracer.l2.hit_latency", cfg.l2.hit_latency);
        self.field("tracer.dram_latency", cfg.dram_latency);
        self.field("tracer.branch.pht_bits", cfg.branch.pht_bits);
        self.field("tracer.branch.history_bits", cfg.branch.history_bits);
        self.field("tracer.branch.ras_depth", cfg.branch.ras_depth);
    }

    /// Feeds the full core configuration.
    pub fn core(&mut self, core: &CoreConfig) {
        self.field("core.name", &core.name);
        self.field("core.width", core.width);
        self.field("core.rob_size", core.rob_size);
        self.field("core.window_size", core.window_size);
        self.field("core.dcache_ports", core.dcache_ports);
        self.field("core.alus", core.alus);
        self.field("core.muldivs", core.muldivs);
        self.field("core.fpus", core.fpus);
        self.field("core.out_of_order", core.out_of_order);
        self.field("core.frontend_depth", core.frontend_depth);
        self.field("core.mispredict_penalty", core.mispredict_penalty);
        self.field("core.has_simd", core.has_simd);
    }

    /// Feeds only the core parameters that shape a timing walk — the
    /// µDG *timing class* — omitting the display name and `has_simd`, so
    /// core variants that differ only in priced parameters share one key.
    pub fn core_timing(&mut self, core: &CoreConfig) {
        self.field("core.timing_class", core.timing_class());
    }

    /// Feeds a BSA subset (order-sensitive; callers pass canonical order).
    pub fn bsas(&mut self, bsas: &[BsaKind]) {
        let codes: String = bsas.iter().map(|b| b.code()).collect();
        self.field("bsas", codes);
    }

    /// Finishes the key.
    #[must_use]
    pub fn finish(self) -> ContentHash {
        self.h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_key(tracer: &TracerConfig) -> ContentHash {
        let mut kb = KeyBuilder::new("workload");
        kb.field("name", "stencil");
        kb.field("n", 2200u32);
        kb.tracer(tracer);
        kb.finish()
    }

    #[test]
    fn key_is_stable_for_identical_inputs() {
        assert_eq!(
            base_key(&TracerConfig::default()),
            base_key(&TracerConfig::default())
        );
    }

    #[test]
    fn key_changes_when_tracer_config_changes() {
        let default = base_key(&TracerConfig::default());
        let ff = TracerConfig {
            fast_forward: 1000,
            ..TracerConfig::default()
        };
        assert_ne!(base_key(&ff), default);
        let small_cache = TracerConfig {
            l1d: prism_sim::CacheConfig {
                size_bytes: 4096,
                ..prism_sim::CacheConfig::l1d()
            },
            ..TracerConfig::default()
        };
        assert_ne!(base_key(&small_cache), default);
        assert_ne!(base_key(&small_cache), base_key(&ff));
    }

    #[test]
    fn key_changes_with_core_and_bsas() {
        let mk = |core: &CoreConfig, bsas: &[BsaKind]| {
            let mut kb = KeyBuilder::new("design-result");
            kb.core(core);
            kb.bsas(bsas);
            kb.finish()
        };
        let a = mk(&CoreConfig::ooo2(), &[BsaKind::Simd]);
        assert_ne!(a, mk(&CoreConfig::ooo4(), &[BsaKind::Simd]));
        assert_ne!(a, mk(&CoreConfig::ooo2(), &[BsaKind::Simd, BsaKind::NsDf]));
        assert_eq!(a, mk(&CoreConfig::ooo2(), &[BsaKind::Simd]));
    }

    #[test]
    fn core_timing_ignores_display_name() {
        let mk = |core: &CoreConfig| {
            let mut kb = KeyBuilder::new("exo-timing-shape");
            kb.core_timing(core);
            kb.finish()
        };
        let base = CoreConfig::ooo2();
        let mut renamed = base.clone();
        renamed.name = "OOO2-relabeled".into();
        assert_eq!(mk(&base), mk(&renamed));
        assert_ne!(mk(&base), mk(&CoreConfig::ooo4()));
        assert_eq!(mk(&base), mk(&base.clone().with_simd()));
    }

    #[test]
    fn domains_do_not_collide() {
        let mut a = KeyBuilder::new("workload");
        a.field("x", 1);
        let mut b = KeyBuilder::new("design-result");
        b.field("x", 1);
        assert_ne!(a.finish(), b.finish());
    }
}
