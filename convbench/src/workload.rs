//! The three closed-loop workloads and the checks on their outputs.
//!
//! Every cycle previews an input and then applies it on the same engine,
//! as `cloudless plan` followed by `cloudless apply` would. One client,
//! one thread: a cycle starts when the previous one has returned.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use cloudless::analyze::{analyze_manifest, lint_program, LintGate};
use cloudless::cloud::{ActivityKind, Catalog, Cloud, CloudConfig, ResourceRecord};
use cloudless::deploy::diff::{diff, render};
use cloudless::deploy::{
    full_refresh, ApplyReport, DataResolver, Executor, Plan, ResiliencePolicy,
};
use cloudless::diagnose::{classify, EditOp};
use cloudless::hcl::program::{expand, ModuleLibrary, Program};
use cloudless::obs::{FlightRecorder, NullRecorder, Recorder};
use cloudless::pipeline::PipelineCtx;
use cloudless::state::{CommitMeta, LogStore, Snapshot};
use cloudless::synth::{synthesize_patch_with, PatchConfig};
use cloudless::types::value::attrs;
use cloudless::types::{Provider, ResourceId, Value};
use cloudless::validate::{validate, SpecMiner, ValidationLevel};
use cloudless::{Cloudless, Config, IncrementalPipeline, PipelineConfig};

use crate::gen::{DriftScript, Estate, Rng, DRIFT_K};
use crate::trace::Tracer;

/// Resources in every workload's estate.
pub const N: usize = 10_000;

/// The engine's principal ([`Config::default`]); out-of-band changes use
/// another one.
const ENGINE: &str = "cloudless-engine";
const CLICKOPS: &str = "clickops";

const EMPTY_PLAN: &str = "Plan: 0 to add, 0 to change, 0 to destroy.\n";

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Deploy,
    Edit,
    Drift,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "deploy-10k" => Some(Kind::Deploy),
            "edit-10k" => Some(Kind::Edit),
            "drift-10k" => Some(Kind::Drift),
            _ => None,
        }
    }
}

/// The end-to-end figures of one timed cycle.
pub struct Sample {
    pub plan_ms: f64,
    pub apply_ms: f64,
    pub virtual_s: f64,
    pub api_calls: u64,
}

/// Why a cycle did not produce a sample.
pub enum CycleError {
    /// The engine returned an error: `failed` of the cycle's two
    /// operations did not complete.
    Op { failed: u64, msg: String },
    /// An output is wrong.
    Wrong(String),
}

fn op_failed(failed: u64) -> impl FnOnce(cloudless::ConvergeError) -> CycleError {
    move |e| CycleError::Op {
        failed,
        msg: e.to_string(),
    }
}

fn wrong(msg: impl Into<String>) -> CycleError {
    CycleError::Wrong(msg.into())
}

/// Time `f` on the wall clock; in the traced run, also record it as a
/// span.
fn timed<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    if let Some(t) = tr.as_deref_mut() {
        t.enter(name);
    }
    let start = Instant::now();
    let out = f();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    if let Some(t) = tr.as_deref_mut() {
        t.exit();
    }
    (out, ms)
}

/// The standard catalog with every quota raised out of the way.
fn raised_catalog() -> Catalog {
    let mut catalog = Catalog::standard();
    let schemas: Vec<_> = catalog.iter().cloned().collect();
    for mut s in schemas {
        s.default_quota = 1_000_000;
        catalog.add(s);
    }
    catalog
}

/// The simulated cloud's defaults (jittered latencies, standard rate
/// limits, no faults) with raised quotas.
fn cloud_config() -> CloudConfig {
    CloudConfig {
        catalog: raised_catalog(),
        ..CloudConfig::default()
    }
}

/// Counters read off the engine around the timed calls of a cycle.
struct Marks {
    now_ms: u64,
    api_calls: u64,
    reads: u64,
    activity: u64,
    log_bytes: u64,
    runs_incremental: u64,
    runs_full: u64,
}

impl Marks {
    fn take(engine: &Cloudless) -> Marks {
        let cloud = engine.cloud();
        let metrics = engine.metrics();
        let counter = |name: &str| metrics.as_ref().map_or(0, |m| m.counter(name));
        Marks {
            now_ms: cloud.now().millis(),
            api_calls: cloud.total_api_calls(),
            reads: Provider::ALL
                .iter()
                .map(|&p| cloud.api_calls(p).reads)
                .sum(),
            activity: cloud.activity().len() as u64,
            log_bytes: engine.store().log_bytes(),
            runs_incremental: counter("pipeline.runs_incremental"),
            runs_full: counter("pipeline.runs_full"),
        }
    }
}

/// State and cloud records as they were before a traced cycle, kept for
/// the stage replay.
struct Before {
    state: Snapshot,
    records: BTreeMap<ResourceId, ResourceRecord>,
}

pub struct Bench {
    kind: Kind,
    rng: Rng,
    estate: Estate,
    source: String,
    engine: Option<Cloudless>,
    /// The buckets `edit-10k` picks from, across all layers.
    buckets: Vec<usize>,
    traced: bool,
    cycle: u64,
    /// Per-cycle values of the traced run's count metrics.
    pub layer: BTreeMap<&'static str, Vec<f64>>,
}

impl Bench {
    /// Generate the inputs, build the starting estate and run one untimed
    /// warm-up cycle.
    pub fn setup(kind: Kind, seed: u64, traced: bool) -> Result<Bench, String> {
        let mut rng = Rng::new(seed);
        let estate = Estate::generate(N, &mut rng);
        let source = estate.render();
        let buckets = (0..N).filter(|&i| estate.kinds[i] == 0).collect();
        let mut bench = Bench {
            kind,
            rng,
            estate,
            source,
            engine: None,
            buckets,
            traced,
            cycle: 0,
            layer: BTreeMap::new(),
        };
        if kind != Kind::Deploy {
            let mut engine = bench.new_engine();
            let out = engine
                .converge(&bench.source)
                .map_err(|e| format!("initial deploy: {e}"))?;
            if !out.apply.all_ok() {
                return Err("initial deploy: apply reported failures".into());
            }
            check_deployed(&bench.estate, &engine).map_err(|e| format!("initial deploy: {e}"))?;
            bench.engine = Some(engine);
        }
        match bench.cycle(None) {
            Ok(_) => Ok(bench),
            Err(CycleError::Op { msg, .. }) | Err(CycleError::Wrong(msg)) => {
                Err(format!("warm-up cycle: {msg}"))
            }
        }
    }

    fn new_engine(&mut self) -> Cloudless {
        let recorder: Arc<dyn Recorder> = if self.traced {
            Arc::new(FlightRecorder::new(1024))
        } else {
            Arc::new(NullRecorder)
        };
        Cloudless::new(Config {
            cloud: cloud_config(),
            seed: self.rng.next_u64(),
            recorder,
            ..Config::default()
        })
    }

    /// One timed cycle. Its two operations are the preview and the apply.
    pub fn cycle(&mut self, mut tr: Option<&mut Tracer>) -> Result<Sample, CycleError> {
        self.cycle += 1;
        if let Some(t) = tr.as_deref_mut() {
            t.cycle = self.cycle;
        }
        match self.kind {
            Kind::Deploy => self.deploy_cycle(tr),
            Kind::Edit => self.edit_cycle(tr),
            Kind::Drift => self.drift_cycle(tr),
        }
    }

    /// Whether the cycles run so far make whole rounds: `edit-10k`'s timed
    /// cycles come in pairs (an update, then a replace), so that every run
    /// times as many of one kind as of the other.
    pub fn round_done(&self) -> bool {
        self.kind != Kind::Edit || self.cycle % 2 == 1
    }

    /// What the stage replay of a traced cycle needs from before it.
    fn before(&self, tr: &Option<&mut Tracer>) -> Option<Before> {
        let engine = self.engine.as_ref()?;
        tr.is_some().then(|| Before {
            state: engine.state().clone(),
            records: engine.cloud().records().clone(),
        })
    }

    fn deploy_cycle(&mut self, mut tr: Option<&mut Tracer>) -> Result<Sample, CycleError> {
        // the previous cycle's engine is dropped before the clock starts
        self.engine = None;
        let fresh = self.new_engine();
        let engine = self.engine.insert(fresh);
        let src = &self.source;
        let m0 = Marks::take(engine);
        let (plan, plan_ms) = timed(&mut tr, "engine.plan", || engine.plan_incremental(src));
        let (plan_text, _) = plan.map_err(op_failed(2))?;
        let (out, apply_ms) = timed(&mut tr, "engine.apply", || engine.converge(src));
        let out = out.map_err(op_failed(1))?;
        let m1 = Marks::take(engine);

        let want = format!("Plan: {N} to add, 0 to change, 0 to destroy.\n");
        if !plan_text.ends_with(&want) {
            return Err(wrong(format!("cold preview did not plan {N} creates")));
        }
        if !out.apply.all_ok() {
            return Err(wrong("deploy apply reported failures"));
        }
        check_deployed(&self.estate, engine).map_err(wrong)?;
        if let Some(t) = tr {
            record_layers(&mut self.layer, engine, &m0, &m1, Some(&out.apply));
            let empty = Snapshot::new();
            replay_converge(t, engine, src, &empty, &BTreeMap::new(), &empty);
            let (state, records) = (engine.state(), engine.cloud().records());
            let reconcile = replay_reconcile(t, engine, src, state, records);
            record_reconcile(&mut self.layer, reconcile);
        }
        Ok(sample(&m0, &m1, plan_ms, apply_ms))
    }

    fn edit_cycle(&mut self, mut tr: Option<&mut Tracer>) -> Result<Sample, CycleError> {
        // one edit to one bucket per cycle, drawn across all layers: odd
        // cycles rename it (`bucket` forces a replace), even cycles set its
        // `acl` (an in-place update). Buckets only, so the virtual time of
        // each kind does not depend on which of the five types the draw
        // lands on.
        let pos = self.buckets[self.rng.below(self.buckets.len())];
        let replace = self.cycle % 2 == 1;
        let (attr, value) = if replace {
            let value = format!("cb-r{pos}-e{}", self.cycle);
            self.estate.names[pos] = value.clone();
            ("bucket", value)
        } else {
            let value = format!("cb-acl-e{}", self.cycle);
            self.estate.acls[pos] = Some(value.clone());
            ("acl", value)
        };
        self.source = self.estate.render();
        let addr = self.estate.addr(pos);
        let id_before = self
            .engine
            .as_ref()
            .and_then(|e| e.state().resources.get(&addr).map(|r| r.id.clone()));

        let before = self.before(&tr);
        let engine = self.engine.as_mut().expect("edit engine is set up");
        let src = &self.source;
        let m0 = Marks::take(engine);
        let (plan, plan_ms) = timed(&mut tr, "engine.plan", || engine.plan_incremental(src));
        let (plan_text, _) = plan.map_err(op_failed(2))?;
        let (out, apply_ms) = timed(&mut tr, "engine.apply", || engine.converge(src));
        let out = out.map_err(op_failed(1))?;
        let m1 = Marks::take(engine);

        let (line, summary) = if replace {
            (
                format!("-/+ {addr}"),
                "Plan: 1 to add, 0 to change, 1 to destroy.\n",
            )
        } else {
            (
                format!("  ~ {addr}"),
                "Plan: 0 to add, 1 to change, 0 to destroy.\n",
            )
        };
        if !plan_text.ends_with(summary) || !plan_text.lines().any(|l| l == line) {
            return Err(wrong(format!("preview of the edit to {addr}: {plan_text}")));
        }
        if !out.apply.all_ok() {
            return Err(wrong("edit apply reported failures"));
        }
        let bound = engine.state().resources.get(&addr);
        let live = bound
            .and_then(|r| engine.cloud().records().get(&r.id))
            .and_then(|rec| rec.attrs.get(attr))
            .and_then(Value::as_str);
        if live != Some(value.as_str()) {
            return Err(wrong(format!("{addr}.{attr} reads {live:?}, not {value}")));
        }
        // a replace binds the address to a new resource; an update keeps it
        let id_after = bound.map(|r| r.id.clone());
        if id_before.is_none() || (id_after == id_before) == replace {
            return Err(wrong(format!(
                "{addr} was bound to {id_before:?} and now to {id_after:?} after {}",
                if replace {
                    "a replace"
                } else {
                    "an in-place update"
                }
            )));
        }
        if engine.state().len() != N || engine.cloud().records().len() != N {
            return Err(wrong("the estate no longer holds n resources"));
        }
        // a check, not an operation of the cycle: taken after `m1`, so its
        // pipeline run stays out of the count metrics
        let (again, _) = engine
            .plan_incremental(src)
            .map_err(|e| wrong(format!("re-preview: {e}")))?;
        if again != EMPTY_PLAN {
            return Err(wrong(format!(
                "re-preview after converge is not empty: {again}"
            )));
        }
        if let (Some(t), Some(before)) = (tr, before) {
            record_layers(&mut self.layer, engine, &m0, &m1, Some(&out.apply));
            replay_converge(
                t,
                engine,
                src,
                &before.state,
                &before.records,
                &before.state,
            );
            let (state, records) = (engine.state(), engine.cloud().records());
            let reconcile = replay_reconcile(t, engine, src, state, records);
            record_reconcile(&mut self.layer, reconcile);
        }
        Ok(sample(&m0, &m1, plan_ms, apply_ms))
    }

    fn drift_cycle(&mut self, mut tr: Option<&mut Tracer>) -> Result<Sample, CycleError> {
        let script = DriftScript::draw(&self.estate, self.cycle, &mut self.rng);
        let engine = self.engine.as_mut().expect("drift engine is set up");
        for (i, value) in &script.edits {
            let addr = self.estate.addr(*i);
            let id = engine
                .state()
                .resources
                .get(&addr)
                .ok_or_else(|| wrong(format!("{addr} is not in state")))?
                .id
                .clone();
            let attr = self.estate.name_attr(*i);
            engine
                .cloud_mut()
                .out_of_band_update(CLICKOPS, &id, attrs([(attr, Value::from(value.as_str()))]))
                .map_err(|e| wrong(format!("drift script update: {e}")))?;
            self.estate.names[*i] = value.clone();
        }
        for bucket in &script.clickops {
            engine
                .cloud_mut()
                .out_of_band_create(
                    CLICKOPS,
                    "aws_s3_bucket",
                    "us-east-1",
                    attrs([("bucket", Value::from(bucket.as_str()))]),
                )
                .map_err(|e| wrong(format!("drift script create: {e}")))?;
        }
        let before = self.before(&tr);
        let engine = self.engine.as_mut().expect("drift engine is set up");
        let src = &self.source;
        let m0 = Marks::take(engine);
        let (dry, plan_ms) = timed(&mut tr, "engine.plan", || engine.reconcile(src, true));
        let dry = dry.map_err(op_failed(2))?;
        let m_mid = Marks::take(engine);
        let (real, apply_ms) = timed(&mut tr, "engine.apply", || engine.reconcile(src, false));
        let real = real.map_err(op_failed(1))?;
        let m1 = Marks::take(engine);

        let want_ops = DRIFT_K + DRIFT_K / 2;
        for (label, report) in [("dry-run", &dry), ("real", &real)] {
            let set_attr = count_ops(&report.plan.ops, |op| matches!(op, EditOp::SetAttr { .. }));
            let add_block = count_ops(&report.plan.ops, |op| matches!(op, EditOp::AddBlock { .. }));
            if !report.converged {
                return Err(wrong(format!("{label} reconcile did not converge")));
            }
            if report.plan.ops.len() != want_ops
                || set_attr != DRIFT_K
                || add_block != DRIFT_K / 2
                || !report.dropped.is_empty()
            {
                return Err(wrong(format!(
                    "{label} reconcile: {} ops ({set_attr} SetAttr, {add_block} AddBlock, {} dropped), \
                     want {DRIFT_K} SetAttr + {} AddBlock",
                    report.plan.ops.len(),
                    report.dropped.len(),
                    DRIFT_K / 2
                )));
            }
        }
        // adoption writes nothing to the cloud
        let engine_writes = engine.cloud().activity().all()[m_mid.activity as usize..]
            .iter()
            .filter(|e| e.principal.as_str() == ENGINE)
            .count();
        if real.apply.as_ref().map_or(0, |a| a.ops_submitted) != 0 || engine_writes != 0 {
            return Err(wrong(format!(
                "adoption made {engine_writes} cloud write(s)"
            )));
        }
        let patched = &real.patched_source;
        for value in script
            .edits
            .iter()
            .map(|(_, v)| v)
            .chain(script.clickops.iter())
        {
            if !patched.contains(&format!("\"{value}\"")) {
                return Err(wrong(format!("patched source lacks drifted value {value}")));
            }
        }
        let records = engine.cloud().records();
        if engine.state().len() != records.len() {
            return Err(wrong("state and cloud hold different numbers of resources"));
        }
        for r in engine.state().resources.values() {
            match records.get(&r.id) {
                Some(rec) if rec.attrs == r.attrs && rec.rtype == r.rtype => {}
                _ => return Err(wrong(format!("{} does not match its live record", r.addr))),
            }
        }
        if let (Some(t), Some(before)) = (tr, before) {
            record_layers(&mut self.layer, engine, &m0, &m1, real.apply.as_ref());
            let reconcile = replay_reconcile(t, engine, src, &before.state, &before.records);
            record_reconcile(&mut self.layer, reconcile);
            let (state, records) = (engine.state(), engine.cloud().records());
            replay_converge(t, engine, patched, state, records, &before.state);
        }
        let sample = sample(&m0, &m1, plan_ms, apply_ms);
        self.source = real.patched_source;
        Ok(sample)
    }
}

/// Count metrics of one traced cycle, read off the engine between the marks
/// taken around its timed calls.
fn record_layers(
    layer: &mut BTreeMap<&'static str, Vec<f64>>,
    engine: &Cloudless,
    m0: &Marks,
    m1: &Marks,
    apply: Option<&ApplyReport>,
) {
    let events = &engine.cloud().activity().all()[m0.activity as usize..m1.activity as usize];
    let writes = |kind: ActivityKind| {
        events
            .iter()
            .filter(|e| e.principal.as_str() == ENGINE && e.kind == kind)
            .count() as f64
    };
    let rows = [
        (
            "core.pipeline_runs_incremental",
            (m1.runs_incremental - m0.runs_incremental) as f64,
        ),
        (
            "core.pipeline_runs_full",
            (m1.runs_full - m0.runs_full) as f64,
        ),
        (
            "core.memo_mb",
            engine.pipeline().approx_bytes() as f64 / 1e6,
        ),
        (
            "deploy.ops_submitted",
            apply.map_or(0, |a| a.ops_submitted) as f64,
        ),
        ("deploy.retries", apply.map_or(0, |a| a.retries) as f64),
        ("cloud.creates", writes(ActivityKind::Created)),
        ("cloud.updates", writes(ActivityKind::Updated)),
        ("cloud.deletes", writes(ActivityKind::Deleted)),
        ("cloud.reads", (m1.reads - m0.reads) as f64),
        ("state.log_bytes", (m1.log_bytes - m0.log_bytes) as f64),
    ];
    for (name, value) in rows {
        layer.entry(name).or_default().push(value);
    }
}

/// The op count and check iterations of one replayed reconcile.
fn record_reconcile(
    layer: &mut BTreeMap<&'static str, Vec<f64>>,
    (ops, iterations): (usize, usize),
) {
    layer
        .entry("diagnose.edit_ops")
        .or_default()
        .push(ops as f64);
    layer
        .entry("synth.iterations")
        .or_default()
        .push(iterations as f64);
}

/// The engine's front-end settings, for calling the stages directly.
struct Frontend {
    inputs: BTreeMap<String, Value>,
    modules: ModuleLibrary,
    data: DataResolver,
    lint: cloudless::analyze::LintConfig,
}

impl Frontend {
    fn new() -> Frontend {
        Frontend {
            inputs: BTreeMap::new(),
            modules: ModuleLibrary::new(),
            data: DataResolver::new(),
            lint: LintGate::default().config().unwrap_or_default(),
        }
    }

    fn load(&self, src: &str) -> (cloudless::hcl::File, Program, cloudless::hcl::Manifest) {
        let file = cloudless::hcl::parse(src, "main.tf").expect("the engine accepted this source");
        let program = Program::from_file(file.clone()).expect("the source classifies");
        let manifest =
            expand(&program, &self.inputs, &self.modules, &self.data).expect("the source expands");
        (file, program, manifest)
    }
}

/// Call each converge stage's public function on the cycle's input: the
/// stages run cold, one span each, so their self times are each stage's
/// cold cost. `base` and `records` are the state and cloud the input is
/// planned and applied against; the state commit goes from `commit_from`
/// to the engine's current state.
fn replay_converge(
    tr: &mut Tracer,
    engine: &Cloudless,
    src: &str,
    base: &Snapshot,
    records: &BTreeMap<ResourceId, ResourceRecord>,
    commit_from: &Snapshot,
) {
    let fe = Frontend::new();
    let catalog = engine.cloud().catalog();
    tr.enter("replay");
    let file = tr.span("hcl.parse", || {
        cloudless::hcl::parse(src, "main.tf").expect("the engine accepted this source")
    });
    let (program, manifest) = tr.span("hcl.expand", || {
        let program = Program::from_file(file).expect("the source classifies");
        let manifest =
            expand(&program, &fe.inputs, &fe.modules, &fe.data).expect("the source expands");
        (program, manifest)
    });
    tr.span("analyze.lint", || {
        lint_program(&program, &fe.modules, &fe.lint)
    });
    tr.span("validate.validate", || {
        validate(
            &manifest,
            catalog,
            ValidationLevel::CloudRules,
            Some(engine.miner()),
        )
    });
    tr.span("analyze.concurrency", || {
        analyze_manifest(&manifest, &fe.lint, None)
    });
    let changes = tr.span("deploy.diff", || {
        let changes = diff(&manifest, base, catalog, &fe.data);
        let _ = render(&changes);
        changes
    });
    let plan = tr.span("deploy.plan", || Plan::build(changes, base, catalog));
    let mut cloud = Cloud::new(cloud_config(), 1);
    cloud.import_records(records.clone());
    let mut state = base.clone();
    let executor = Executor::new(Config::default().strategy, &fe.data)
        .with_resilience(ResiliencePolicy::standard());
    tr.span("deploy.apply", || {
        executor.apply(&plan, &mut cloud, &mut state)
    });
    let mut store = LogStore::in_memory_seeded(commit_from.clone());
    tr.span("state.commit", || {
        store
            .commit_snapshot(engine.state(), CommitMeta::bare("replay"))
            .expect("in-memory commit")
    });
    let mut miner = SpecMiner::new();
    tr.span("validate.miner_observe", || miner.observe(&manifest));
    tr.exit();
}

/// Call the reconcile stages on `src` against `state` and the cloud
/// `records`: refresh, classify, and patch synthesis, whose candidate
/// checks run a cold front end in child spans. `drift-10k` passes the
/// drifted estate; the other workloads pass the converged one, where there
/// is no drift and the stages show the cost of a reconcile that finds
/// nothing. Returns the classified op count and the synthesis's check
/// iterations.
fn replay_reconcile(
    tr: &mut Tracer,
    engine: &Cloudless,
    src: &str,
    state: &Snapshot,
    records: &BTreeMap<ResourceId, ResourceRecord>,
) -> (usize, usize) {
    let fe = Frontend::new();
    let catalog = engine.cloud().catalog();
    let (file, program, manifest) = fe.load(src);
    let mut cloud = Cloud::new(cloud_config(), 1);
    cloud.import_records(records.clone());
    let mut state = state.clone();
    tr.enter("replay");
    tr.span("deploy.refresh", || {
        full_refresh(&mut cloud, &mut state, ENGINE)
    });
    let drift = tr.span("diagnose.classify", || {
        classify(&program, &manifest, &state, cloud.records(), catalog)
    });
    let recorder: Arc<dyn Recorder> = Arc::new(NullRecorder);
    let ctx = PipelineCtx {
        inputs: &fe.inputs,
        modules: &fe.modules,
        lint: LintGate::default(),
        level: ValidationLevel::CloudRules,
        data: &fe.data,
        catalog,
        state: &state,
        miner: Some(engine.miner()),
        recorder: &recorder,
    };
    let config = PatchConfig {
        lint: fe.lint.clone(),
        ..PatchConfig::default()
    };
    let fail_on = config.lint.fail_on;
    let mut pipeline = IncrementalPipeline::new(PipelineConfig { max_cache_bytes: 0 });
    tr.enter("synth.patch");
    let mut checker = |candidate: &str| {
        tr.enter("synth.check");
        let messages = match pipeline.run(candidate, &ctx) {
            Ok(_) => Vec::new(),
            Err(e) => e.patch_messages(fail_on),
        };
        tr.exit();
        messages
    };
    let outcome = synthesize_patch_with(&file, &drift, &config, &mut checker);
    tr.exit();
    tr.exit();
    assert!(outcome.ok, "replayed patch synthesis refused the drift");
    (drift.ops.len(), outcome.iterations)
}

fn count_ops(ops: &[EditOp], f: impl Fn(&EditOp) -> bool) -> usize {
    ops.iter().filter(|op| f(op)).count()
}

fn sample(m0: &Marks, m1: &Marks, plan_ms: f64, apply_ms: f64) -> Sample {
    Sample {
        plan_ms,
        apply_ms,
        virtual_s: (m1.now_ms - m0.now_ms) as f64 / 1e3,
        api_calls: m1.api_calls - m0.api_calls,
    }
}

/// The state holds exactly the generated addresses with their generated
/// types, each bound to a live record carrying its name; the cloud holds
/// nothing else; and along every generated `depends_on` edge the
/// dependency was created before the dependent.
fn check_deployed(estate: &Estate, engine: &Cloudless) -> Result<(), String> {
    let state = engine.state();
    let records = engine.cloud().records();
    if state.len() != estate.len() || records.len() != estate.len() {
        return Err(format!(
            "state holds {} and the cloud {} resources, want {}",
            state.len(),
            records.len(),
            estate.len()
        ));
    }
    let mut created = Vec::with_capacity(estate.len());
    for i in 0..estate.len() {
        let addr = estate.addr(i);
        let r = state
            .resources
            .get(&addr)
            .ok_or_else(|| format!("{addr} is missing from state"))?;
        let rec = records
            .get(&r.id)
            .ok_or_else(|| format!("{addr} is bound to {}, which is not live", r.id))?;
        if r.rtype.as_str() != estate.rtype(i) || rec.rtype.as_str() != estate.rtype(i) {
            return Err(format!("{addr} has type {}", rec.rtype));
        }
        if rec.attrs.get(estate.name_attr(i)).and_then(Value::as_str) != Some(&estate.names[i]) {
            return Err(format!("{addr} does not carry its generated name"));
        }
        created.push(rec.created_at);
    }
    for (i, deps) in estate.deps.iter().enumerate() {
        for &d in deps {
            if created[d as usize] >= created[i] {
                return Err(format!(
                    "{} was created before its dependency {}",
                    estate.addr(i),
                    estate.addr(d as usize)
                ));
            }
        }
    }
    Ok(())
}
