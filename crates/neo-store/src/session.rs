//! The typed session layer over [`Store`]: saving and warm-starting
//! whole FHE sessions, plan caches, and ciphertexts.
//!
//! A [`SessionStore`] binds a [`Store`] to one parameter set (via its
//! `neo_plan::param_fingerprint`); records written under a different
//! fingerprint are ignored on load and refused on decode, so a store
//! file can be shared across parameter upgrades without ever hydrating
//! keys into the wrong context. Key and ciphertext records ignore the
//! compute backend: every backend computes them bit for bit alike, so a
//! session saved under one backend warm-starts under the other. Cached
//! plans keep the backend in their key — a plan is priced for one.
//!
//! KSK records are **seed-compressed**: only the digit `b`-parts are
//! persisted (one polynomial per digit instead of two), and the public
//! `a`-parts are regenerated from the chest's per-`(level, target)` PRNG
//! stream on load — roughly halving bytes-per-tenant while staying
//! bit-identical to a cold generation. The same streams make damaged KSK
//! records *self-healing*: when the recovery scan classifies one as
//! recoverable, [`SessionStore::warm_start`] regenerates it from the
//! live secret key and rewrites it.

use crate::codec;
use crate::format::{RecordId, RecordKind};
use crate::metrics;
use crate::store::{RecordStatus, Store};
use neo_ckks::{
    BackendKind, Ciphertext, CkksContext, CkksParams, FheEngine, KeyTarget, KsMethod, SecretKey,
};
use neo_error::NeoError;
use neo_plan::{param_fingerprint, PlanKey, PlanStore};
use std::path::Path;
use std::sync::Arc;

/// A [`Store`] bound to one CKKS context and its parameter fingerprint.
#[derive(Debug)]
pub struct SessionStore {
    store: Store,
    ctx: Arc<CkksContext>,
    /// Tags plan records: every parameter, backend included.
    fingerprint: u64,
    /// Accepted on key and ciphertext records: the parameters'
    /// fingerprint under each backend. New records take the portable one.
    material: [u64; 2],
}

/// `p`'s fingerprint under each backend, portable first. Key material and
/// ciphertexts are backend-independent, so any of these identifies them;
/// the portable one is also what stores written before this split carry
/// for sessions that ran on the portable backend.
fn material_fingerprints(p: &CkksParams) -> [u64; 2] {
    [BackendKind::Portable, BackendKind::Simd].map(|backend| {
        let mut q = p.clone();
        q.backend = backend;
        param_fingerprint(&q)
    })
}

fn ksk_kind(method: KsMethod) -> RecordKind {
    match method {
        KsMethod::Hybrid => RecordKind::HybridKsk,
        KsMethod::Klss => RecordKind::KlssKsk,
    }
}

impl SessionStore {
    /// Opens the store at `path` for sessions under `ctx`, running the
    /// recovery scan (see [`Store::open`]).
    ///
    /// # Errors
    ///
    /// [`NeoError::StoreIo`] if the file exists but cannot be read.
    pub fn open(path: impl AsRef<Path>, ctx: Arc<CkksContext>) -> Result<Self, NeoError> {
        let store = Store::open(path)?;
        let fingerprint = param_fingerprint(ctx.params());
        let material = material_fingerprints(ctx.params());
        Ok(Self {
            store,
            ctx,
            fingerprint,
            material,
        })
    }

    /// The underlying record store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The context every hydrated engine is built over.
    pub fn context(&self) -> &Arc<CkksContext> {
        &self.ctx
    }

    /// The parameter fingerprint (backend included) plan records in this
    /// session are tagged with.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Whether `id` is tagged as key or ciphertext material of these
    /// parameters, under any backend.
    fn is_material(&self, id: RecordId) -> bool {
        self.store
            .fingerprint_of(id)
            .is_some_and(|fp| self.material.contains(&fp))
    }

    fn sk_id(tenant: u64) -> RecordId {
        RecordId {
            kind: RecordKind::SecretKey,
            tenant,
            level: 0,
            aux: 0,
        }
    }

    fn ct_id(tenant: u64, handle: u64) -> RecordId {
        RecordId {
            kind: RecordKind::Ciphertext,
            tenant,
            level: 0,
            aux: handle,
        }
    }

    /// Whether a valid (or seed-recoverable) session for `tenant` is
    /// resident — i.e. whether [`Self::warm_start`] has anything to work
    /// with.
    pub fn has_session(&self, tenant: u64) -> bool {
        self.store.status(Self::sk_id(tenant)) == RecordStatus::Valid
            && self.is_material(Self::sk_id(tenant))
    }

    /// Persists `engine`'s session for `tenant`: the secret key (tagged
    /// with `engine_seed`, the seed the engine was built with, so the
    /// replayed public key is bit-identical) plus every currently-warm
    /// KSK in seed-compressed form. Memory only until [`Self::commit`].
    pub fn save_engine(&mut self, tenant: u64, engine: &FheEngine, engine_seed: u64) {
        let chest = engine.chest();
        self.store.put(
            Self::sk_id(tenant),
            engine_seed,
            self.material[0],
            codec::encode_secret_key(chest.secret_key().coeffs()),
        );
        let kind = ksk_kind(engine.method());
        for (level, target) in chest.cached_keys(engine.method()) {
            let b_parts = chest.export_b_parts(level, target);
            self.store.put(
                RecordId {
                    kind,
                    tenant,
                    level: level as u64,
                    aux: target.code(),
                },
                chest.key_seed(),
                self.material[0],
                codec::encode_polys(&b_parts),
            );
        }
    }

    /// Rebuilds `tenant`'s session from the store: decodes the secret
    /// key, replays the engine from its recorded seed (bit-identical
    /// public key and chest streams), hydrates every valid KSK record
    /// from its `b`-parts, and regenerates damaged-but-recoverable ones
    /// from the live secret key — rewriting them so the next commit
    /// heals the file.
    ///
    /// Returns `Ok(None)` when no secret-key record exists for `tenant`
    /// under these parameters (cold start is the caller's fallback).
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] if the secret-key record is
    /// quarantined, any record fails its read-back checksum, or a
    /// payload decodes to something the context refuses.
    pub fn warm_start(&mut self, tenant: u64) -> Result<Option<FheEngine>, NeoError> {
        let sk_id = Self::sk_id(tenant);
        let Some(payload) = self.store.get(sk_id)? else {
            return Ok(None);
        };
        if !self.is_material(sk_id) {
            return Ok(None);
        }
        let seed = self.store.seed_of(sk_id).unwrap_or(0);
        let sk = SecretKey::from_coeffs(codec::decode_secret_key(&payload)?)?;
        let engine = FheEngine::with_secret_key(self.ctx.clone(), sk, seed);
        let method = engine.method();
        let kind = ksk_kind(method);
        let chest = engine.chest();

        for id in self.store.ids() {
            if id.kind != kind || id.tenant != tenant || !self.is_material(id) {
                continue;
            }
            let Some(target) = KeyTarget::from_code(id.aux) else {
                return Err(NeoError::fault_detected(
                    "store_record",
                    format!("{} record names key target code {}", kind.name(), id.aux),
                ));
            };
            let Some(bytes) = self.store.get(id)? else {
                continue;
            };
            let b_parts = codec::decode_polys(&bytes)?;
            match method {
                KsMethod::Hybrid => {
                    chest.rebuild_hybrid(id.level as usize, target, b_parts)?;
                }
                KsMethod::Klss => {
                    chest.rebuild_klss(id.level as usize, target, b_parts)?;
                }
            }
        }

        // Self-heal: damaged KSK records whose headers survived are
        // regenerated from the live secret key and rewritten.
        for id in self.store.recoverable_ids() {
            if id.kind != kind
                || id.tenant != tenant
                || !self.is_material(id)
                || self.store.seed_of(id) != Some(chest.key_seed())
            {
                continue;
            }
            let Some(target) = KeyTarget::from_code(id.aux) else {
                continue;
            };
            chest.warm(id.level as usize, target, method)?;
            let b_parts = chest.export_b_parts(id.level as usize, target);
            self.store.put(
                id,
                chest.key_seed(),
                self.material[0],
                codec::encode_polys(&b_parts),
            );
            neo_fault::note_recovery(neo_fault::FaultSite::StoreRead);
            metrics::note_recovered();
        }

        Ok(Some(engine))
    }

    /// Persists every plan cached for this fingerprint. Memory only
    /// until [`Self::commit`].
    pub fn save_plans(&mut self, plans: &PlanStore) {
        for (key, plan) in plans.entries() {
            if key.fingerprint != self.fingerprint {
                continue;
            }
            self.store.put(
                RecordId {
                    kind: RecordKind::ExecPlan,
                    tenant: 0,
                    level: 0,
                    aux: key.shape,
                },
                0,
                key.fingerprint,
                codec::encode_plan(&plan),
            );
        }
    }

    /// Hydrates `plans` with every valid plan record under this
    /// fingerprint; returns how many were loaded.
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] on a failed read-back checksum or an
    /// undecodable plan payload.
    pub fn load_plans(&self, plans: &PlanStore) -> Result<usize, NeoError> {
        let mut loaded = 0;
        for id in self.store.ids() {
            if id.kind != RecordKind::ExecPlan
                || self.store.fingerprint_of(id) != Some(self.fingerprint)
            {
                continue;
            }
            let Some(bytes) = self.store.get(id)? else {
                continue;
            };
            plans.insert(
                PlanKey {
                    fingerprint: self.fingerprint,
                    shape: id.aux,
                },
                codec::decode_plan(&bytes)?,
            );
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Persists a ciphertext under a caller-chosen handle. Memory only
    /// until [`Self::commit`].
    pub fn save_ciphertext(&mut self, tenant: u64, handle: u64, ct: &Ciphertext) {
        self.store.put(
            Self::ct_id(tenant, handle),
            0,
            self.material[0],
            codec::encode_ciphertext(ct),
        );
    }

    /// Loads a ciphertext saved under `handle`, or `None` if absent (or
    /// written under different parameters).
    ///
    /// # Errors
    ///
    /// [`NeoError::FaultDetected`] if the record is quarantined, fails
    /// its read-back checksum, or decodes to an implausible shape.
    pub fn load_ciphertext(
        &self,
        tenant: u64,
        handle: u64,
    ) -> Result<Option<Ciphertext>, NeoError> {
        let id = Self::ct_id(tenant, handle);
        if !self.is_material(id) && self.store.status(id) == RecordStatus::Valid {
            return Ok(None);
        }
        match self.store.get(id)? {
            Some(bytes) => Ok(Some(codec::decode_ciphertext(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Atomically publishes all pending records to disk (see
    /// [`Store::commit`]).
    ///
    /// # Errors
    ///
    /// [`NeoError::StoreIo`] on any filesystem failure; the previous
    /// image survives intact.
    pub fn commit(&self) -> Result<(), NeoError> {
        self.store.commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_ckks::CkksParams;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "neo-store-session-{}-{name}.neostore",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn ctx() -> Arc<CkksContext> {
        Arc::new(CkksContext::new(CkksParams::test_tiny()).expect("ctx"))
    }

    #[test]
    fn warm_start_replays_a_bit_identical_session() {
        let path = tmp("warm");
        let ctx = ctx();
        let cold = FheEngine::with_context(ctx.clone(), 7);
        cold.chest()
            .warm(ctx.params().max_level, KeyTarget::Relin, cold.method())
            .expect("warm relin");
        let ct = cold
            .encrypt_f64(&[1.5, -2.25], ctx.params().max_level)
            .expect("enc");

        let mut ss = SessionStore::open(&path, ctx.clone()).expect("open");
        ss.save_engine(42, &cold, 7);
        ss.save_ciphertext(42, 1, &ct);
        ss.commit().expect("commit");

        let mut ss2 = SessionStore::open(&path, ctx.clone()).expect("reopen");
        assert!(ss2.has_session(42));
        let warm = ss2
            .warm_start(42)
            .expect("warm start")
            .expect("session exists");
        assert_eq!(
            warm.chest().secret_key().coeffs(),
            cold.chest().secret_key().coeffs()
        );
        // The hydrated engine decrypts the persisted ciphertext.
        let back = ss2
            .load_ciphertext(42, 1)
            .expect("load ct")
            .expect("present");
        let vals = warm.decrypt_f64(&back).expect("decrypt");
        assert!((vals[0] - 1.5).abs() < 1e-3 && (vals[1] + 2.25).abs() < 1e-3);
        // And its rebuilt relin key matches a cold regeneration bit for bit.
        assert_eq!(
            warm.chest()
                .export_b_parts(ctx.params().max_level, KeyTarget::Relin),
            cold.chest()
                .export_b_parts(ctx.params().max_level, KeyTarget::Relin)
        );
        assert!(ss2.warm_start(9999).expect("missing tenant").is_none());
        let _ = std::fs::remove_file(&path);
    }

    /// Key material is backend-independent: a session saved under the
    /// portable backend warm-starts under SIMD and decrypts bit for bit
    /// like the engine that saved it.
    #[test]
    fn session_survives_a_backend_flip() {
        let path = tmp("flip");
        let ctx_on = |backend| {
            let mut p = CkksParams::test_tiny();
            p.backend = backend;
            Arc::new(CkksContext::new(p).expect("ctx"))
        };
        let portable = ctx_on(BackendKind::Portable);
        let cold = FheEngine::with_context(portable.clone(), 5);
        let lvl = portable.params().max_level;
        cold.chest()
            .warm(lvl, KeyTarget::Relin, cold.method())
            .expect("warm relin");
        let ct = cold.encrypt_f64(&[0.75, -3.5], lvl).expect("enc");
        let mut ss = SessionStore::open(&path, portable).expect("open");
        ss.save_engine(3, &cold, 5);
        ss.save_ciphertext(3, 1, &ct);
        ss.commit().expect("commit");

        let simd = ctx_on(BackendKind::Simd);
        let mut ss2 = SessionStore::open(&path, simd).expect("reopen");
        assert!(ss2.has_session(3));
        let warm = ss2
            .warm_start(3)
            .expect("warm start")
            .expect("warm, not cold");
        assert_eq!(warm.backend(), BackendKind::Simd);
        assert_eq!(
            warm.chest().export_b_parts(lvl, KeyTarget::Relin),
            cold.chest().export_b_parts(lvl, KeyTarget::Relin)
        );
        let back = ss2.load_ciphertext(3, 1).expect("load").expect("present");
        let (w, c) = (
            warm.decrypt_f64(&back).expect("warm decrypt"),
            cold.decrypt_f64(&ct).expect("cold decrypt"),
        );
        assert_eq!(
            w.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            c.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn damaged_ksk_record_self_heals() {
        let path = tmp("heal");
        let ctx = ctx();
        let lvl = ctx.params().max_level;
        let cold = FheEngine::with_context(ctx.clone(), 11);
        cold.chest()
            .warm(lvl, KeyTarget::Relin, cold.method())
            .expect("warm");
        let mut ss = SessionStore::open(&path, ctx.clone()).expect("open");
        ss.save_engine(1, &cold, 11);
        ss.commit().expect("commit");

        // Corrupt the KSK payload on disk (flip the file's last byte:
        // the KSK record sorts after the secret key and is payload-last).
        let mut bytes = std::fs::read(&path).expect("read");
        let n = bytes.len();
        bytes[n - 1] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");

        let mut ss2 = SessionStore::open(&path, ctx.clone()).expect("reopen");
        assert_eq!(ss2.store().report().recoverable, 1);
        let warm = ss2.warm_start(1).expect("warm").expect("present");
        // Healed in memory from seed — bit-identical to the cold key...
        assert_eq!(
            warm.chest().export_b_parts(lvl, KeyTarget::Relin),
            cold.chest().export_b_parts(lvl, KeyTarget::Relin)
        );
        // ...and rewritten so the next commit+open sees a clean file.
        ss2.commit().expect("heal commit");
        let ss3 = SessionStore::open(&path, ctx).expect("healed open");
        assert_eq!(ss3.store().report().recoverable, 0);
        assert_eq!(ss3.store().report().quarantined, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn plans_roundtrip_through_the_store() {
        let path = tmp("plans");
        let ctx = ctx();
        let plans = PlanStore::new();
        let fp = param_fingerprint(ctx.params());
        let plan = neo_ckks::ExecPlan {
            streams: 3,
            ..neo_ckks::ExecPlan::unplanned(ctx.params())
        };
        plans.insert(
            PlanKey {
                fingerprint: fp,
                shape: 0xABCD,
            },
            plan,
        );
        // A foreign-fingerprint plan must not be persisted under ours.
        plans.insert(
            PlanKey {
                fingerprint: fp ^ 1,
                shape: 0xEEEE,
            },
            plan,
        );

        let mut ss = SessionStore::open(&path, ctx.clone()).expect("open");
        ss.save_plans(&plans);
        ss.commit().expect("commit");

        let ss2 = SessionStore::open(&path, ctx).expect("reopen");
        let hydrated = PlanStore::new();
        let n = ss2.load_plans(&hydrated).expect("load");
        assert_eq!(n, 1);
        assert_eq!(
            hydrated
                .get(&PlanKey {
                    fingerprint: fp,
                    shape: 0xABCD
                })
                .expect("plan present")
                .streams,
            3
        );
        let _ = std::fs::remove_file(&path);
    }
}
