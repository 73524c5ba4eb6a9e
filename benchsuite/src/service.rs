//! The `service-mixed` workload: a matching server on a file-backed
//! repository, driven from outside by one load process over two
//! connections in a closed loop (each caller waits for its reply).
//!
//! The server is this binary's `serve` mode, which runs the same library
//! entry points as the `coma-server` binary (`ServerState::open` on a
//! `FileBackend`, `Server::bind`, `Server::serve`). Every run starts it on
//! a fresh copy of one starting store file built from the seed.

use crate::batch::{median_secs, shuffled};
use crate::render;
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use crate::Args;
use coma_bench::workload::{
    generate_family, generate_task, SplitMix64, WorkloadShape, WorkloadSpec,
};
use coma_core::{
    plans, schema_fingerprint, Auxiliary, CacheStats, EngineConfig, MatchContext, MatchPlan,
    MatchStrategy, MatcherLibrary, PlanAnalyzer, PlanEngine, TaskStats,
};
use coma_graph::{PathSet, Schema};
use coma_repo::{FileBackend, MappingKind, PersistentRepository};
use coma_server::protocol::{read_message, write_message};
use coma_server::{
    Client, InlineSchema, MatchConfig, MatchRequest, MatchResponse, PlanSpec, Request, Response,
    ReuseSpec, SchemaFormat, SchemaRef, Server, ServerState,
};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANT: &str = "bench";
/// The server's per-tenant cache capacity, in schema pairs (its default).
const CACHE_PAIRS: usize = 32;
/// Concurrent connections of the load process.
const CLIENTS: usize = 2;

/// `serve --socket PATH --store FILE`: the matching server.
pub fn serve(argv: &[String]) -> ExitCode {
    let (mut socket, mut store) = (None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--socket", Some(v)) => socket = Some(v.clone()),
            ("--store", Some(v)) => store = Some(v.clone()),
            _ => return ExitCode::from(2),
        }
    }
    let (Some(socket), Some(store)) = (socket, store) else {
        return ExitCode::from(2);
    };
    let state = match ServerState::open(FileBackend::new(store), CACHE_PAIRS) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot open repository: {e}");
            return ExitCode::FAILURE;
        }
    };
    let served = Server::bind(&socket, state).and_then(|server| server.serve());
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One schema of the seeded pool, as the client ships it.
struct PoolSchema {
    /// Repository key.
    name: String,
    /// The text a client sends (XSD, or DDL for some flat schemas).
    text: String,
    format: SchemaFormat,
    /// What importing `text` gives (the server stores exactly this).
    schema: Schema,
}

impl PoolSchema {
    /// Renders a generated schema — as DDL when it is flat and every
    /// other one asks for DDL — and checks the rendering round-trips.
    fn render(name: String, generated: &Schema, prefer_ddl: bool) -> Result<PoolSchema, String> {
        if prefer_ddl {
            if let Some(ddl) = render::to_ddl(generated) {
                if render::round_trips(generated, &ddl, true) {
                    let schema = coma_sql::import_ddl(&ddl, &name).map_err(|e| e.to_string())?;
                    return Ok(PoolSchema {
                        name,
                        text: ddl,
                        format: SchemaFormat::Sql,
                        schema,
                    });
                }
            }
        }
        let xsd = render::to_xsd(generated);
        if !render::round_trips(generated, &xsd, false) {
            return Err(format!("XSD rendering of {name} does not round-trip"));
        }
        let schema = coma_xml::import_xsd(&xsd, &name).map_err(|e| e.to_string())?;
        Ok(PoolSchema {
            name,
            text: xsd,
            format: SchemaFormat::Xsd,
            schema,
        })
    }

    fn from_xsd(name: &str, xsd: &str) -> Result<PoolSchema, String> {
        Ok(PoolSchema {
            name: name.to_string(),
            text: xsd.to_string(),
            format: SchemaFormat::Xsd,
            schema: coma_xml::import_xsd(xsd, name).map_err(|e| e.to_string())?,
        })
    }

    fn inline(&self) -> InlineSchema {
        InlineSchema {
            name: self.name.clone(),
            format: self.format,
            text: self.text.clone(),
        }
    }
}

/// Request kinds and their shares per block of 20 requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Kind {
    /// Repeat match of a hot pair (fits the tenant cache).
    Warm,
    /// First-seen pair from the churn pool (evicts).
    Cold,
    /// Match with both schemas inline (import on the request path).
    Inline,
    /// Pivot reuse over stored mappings.
    Reuse,
    /// Durable write: `PutSchema`, or a match with `store: true`.
    Write,
}

const BLOCK: [(Kind, usize); 5] = [
    (Kind::Warm, 12),
    (Kind::Cold, 3),
    (Kind::Inline, 2),
    (Kind::Reuse, 1),
    (Kind::Write, 2),
];

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Warm => "warm",
            Kind::Cold => "cold",
            Kind::Inline => "inline",
            Kind::Reuse => "reuse",
            Kind::Write => "write",
        }
    }
}

/// Families of near-duplicate stored schemas: (shape, nodes). Members of
/// the first two (small star/wide) match with the `Default` plan, the
/// rest with `TopKPruned(5)` or `CandidateIndex(5)`.
const FAMILIES: [(WorkloadShape, usize); 8] = [
    (WorkloadShape::Star, 150),
    (WorkloadShape::Wide, 150),
    (WorkloadShape::Catalog, 300),
    (WorkloadShape::Deep, 400),
    (WorkloadShape::Star, 600),
    (WorkloadShape::Catalog, 800),
    (WorkloadShape::Wide, 1000),
    (WorkloadShape::Star, 1500),
];
const MEMBERS: usize = 4;
/// Families whose stored mappings form reuse chains (members 0→1→2→3).
const REUSE_FAMILIES: usize = 3;
/// Inline-only generated tasks: (shape, nodes).
const INLINE_TASKS: [(WorkloadShape, usize); 4] = [
    (WorkloadShape::Star, 300),
    (WorkloadShape::Catalog, 600),
    (WorkloadShape::Wide, 1000),
    (WorkloadShape::Deep, 1500),
];

/// The seeded inputs of one run.
struct Pool {
    stored: Vec<PoolSchema>,
    inline: Vec<PoolSchema>,
    by_name: HashMap<String, usize>,
    /// (source, target, plan) over stored schemas.
    hot: Vec<(usize, usize, PlanSpec)>,
    churn: Vec<(usize, usize, PlanSpec)>,
    /// (source, target, plan) over `inline`.
    inline_pairs: Vec<(usize, usize, PlanSpec)>,
    reuse: Vec<(usize, usize)>,
}

fn plan_for(shape: WorkloadShape, nodes: usize, k: usize, tiny: bool) -> PlanSpec {
    let small = nodes <= if tiny { 40 } else { 150 };
    if small && matches!(shape, WorkloadShape::Star | WorkloadShape::Wide) {
        PlanSpec::Default
    } else if k.is_multiple_of(2) {
        PlanSpec::TopKPruned(5)
    } else {
        PlanSpec::CandidateIndex(5)
    }
}

impl Pool {
    fn generate(args: &Args) -> Result<Pool, String> {
        let mut rng = SplitMix64::new(args.seed ^ 0x51C0_FFEE_D00D_2024);
        let mut stored = Vec::new();
        let mut hot = Vec::new();
        let mut churn_by_family = Vec::new();
        let mut reuse = Vec::new();
        for (f, &(shape, nodes)) in FAMILIES.iter().enumerate() {
            let nodes = args.scaled(nodes);
            let spec = WorkloadSpec::new(shape, nodes, rng.next_u64());
            let base = stored.len();
            for (k, member) in generate_family(&spec, MEMBERS).iter().enumerate() {
                let name = format!("F{f}m{k}_{}{nodes}", shape.label());
                stored.push(PoolSchema::render(name, member, k % 2 == 1)?);
            }
            let mut churn = Vec::new();
            for a in 0..MEMBERS {
                for b in (0..MEMBERS).filter(|&b| b != a) {
                    let plan = plan_for(shape, nodes, a + b, args.tiny);
                    let pair = (base + a, base + b, plan);
                    // Hot: the chain pairs of the four smaller families.
                    if f < 4 && b == a + 1 {
                        hot.push(pair);
                    } else {
                        churn.push(pair);
                    }
                }
            }
            let order = shuffled(churn.len(), &mut rng);
            churn_by_family.push(
                order
                    .into_iter()
                    .map(|i| churn[i].clone())
                    .collect::<Vec<_>>(),
            );
            if f < REUSE_FAMILIES {
                for (a, b) in [(0, 2), (1, 3), (0, 3), (2, 0), (3, 1), (3, 0)] {
                    reuse.push((base + a, base + b));
                }
            }
        }
        // First-seen pairs cycle through the families (each in a seeded
        // order), so every stretch of the run sees the same size mix.
        let families = shuffled(churn_by_family.len(), &mut rng);
        let rounds = churn_by_family.iter().map(Vec::len).max().unwrap_or(0);
        let churn = (0..rounds)
            .flat_map(|r| families.iter().map(move |&f| (f, r)))
            .filter_map(|(f, r)| churn_by_family[f].get(r).cloned())
            .collect();

        let mut inline = Vec::new();
        let mut inline_pairs = Vec::new();
        for &(i, j) in &coma_eval::TASKS {
            let base = inline.len();
            for k in [i, j] {
                inline.push(PoolSchema::from_xsd(
                    coma_eval::SCHEMA_NAMES[k],
                    coma_eval::corpus::xsd_source(k),
                )?);
            }
            inline_pairs.push((base, base + 1, PlanSpec::Default));
        }
        for (t, &(shape, nodes)) in INLINE_TASKS.iter().enumerate() {
            let nodes = args.scaled(nodes);
            let (s, g) = generate_task(&WorkloadSpec::new(shape, nodes, rng.next_u64()));
            let base = inline.len();
            inline.push(PoolSchema::render(
                format!("I{t}s_{}{nodes}", shape.label()),
                &s,
                true,
            )?);
            inline.push(PoolSchema::render(
                format!("I{t}t_{}{nodes}", shape.label()),
                &g,
                false,
            )?);
            inline_pairs.push((base, base + 1, plan_for(shape, nodes, t, args.tiny)));
        }
        let order = shuffled(inline_pairs.len(), &mut rng);
        let inline_pairs = order.into_iter().map(|i| inline_pairs[i].clone()).collect();
        let by_name = stored
            .iter()
            .enumerate()
            .map(|(i, s)| (s.name.clone(), i))
            .collect();
        Ok(Pool {
            stored,
            inline,
            by_name,
            hot,
            churn,
            inline_pairs,
            reuse,
        })
    }

    fn match_request(
        &self,
        source: SchemaRef,
        target: SchemaRef,
        plan: PlanSpec,
        store: bool,
    ) -> Request {
        Request::Match(MatchRequest {
            tenant: TENANT.to_string(),
            source,
            target,
            plan,
            config: MatchConfig::default(),
            store,
        })
    }

    fn stored_ref(&self, i: usize) -> SchemaRef {
        SchemaRef::Stored(self.stored[i].name.clone())
    }

    /// The seeded request sequence: blocks of 20 with the fixed shares,
    /// shuffled within each block.
    fn requests(&self, count: usize, seed: u64) -> Vec<(Kind, Request)> {
        let mut rng = SplitMix64::new(seed ^ 0x0DDB_A11C_AFE0_0001);
        let block: Vec<Kind> = BLOCK
            .iter()
            .flat_map(|&(k, n)| std::iter::repeat_n(k, n))
            .collect();
        let mut next: BTreeMap<Kind, usize> = BTreeMap::new();
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            for b in shuffled(block.len(), &mut rng) {
                let kind = block[b];
                let n = next.entry(kind).or_default();
                *n += 1;
                let request = match kind {
                    Kind::Warm => {
                        let (s, t, p) = &self.hot[rng.index(self.hot.len())];
                        self.match_request(
                            self.stored_ref(*s),
                            self.stored_ref(*t),
                            p.clone(),
                            false,
                        )
                    }
                    Kind::Cold => {
                        let (s, t, p) = &self.churn[(*n - 1) % self.churn.len()];
                        self.match_request(
                            self.stored_ref(*s),
                            self.stored_ref(*t),
                            p.clone(),
                            false,
                        )
                    }
                    Kind::Inline => {
                        let (s, t, p) = &self.inline_pairs[(*n - 1) % self.inline_pairs.len()];
                        self.match_request(
                            SchemaRef::Inline(self.inline[*s].inline()),
                            SchemaRef::Inline(self.inline[*t].inline()),
                            p.clone(),
                            false,
                        )
                    }
                    Kind::Reuse => {
                        let (s, t) = self.reuse[(*n - 1) % self.reuse.len()];
                        self.match_request(
                            self.stored_ref(s),
                            self.stored_ref(t),
                            PlanSpec::Reuse(ReuseSpec::default()),
                            false,
                        )
                    }
                    Kind::Write if *n % 2 == 1 => {
                        let i = rng.index(self.stored.len());
                        Request::PutSchema(TENANT.to_string(), self.stored[i].inline())
                    }
                    Kind::Write => {
                        let (s, t, p) = &self.hot[rng.index(self.hot.len())];
                        self.match_request(
                            self.stored_ref(*s),
                            self.stored_ref(*t),
                            p.clone(),
                            true,
                        )
                    }
                };
                out.push((kind, request));
            }
        }
        out.truncate(count);
        out
    }

    /// The schema a request side resolves to.
    fn resolve(&self, side: &SchemaRef) -> Result<Schema, String> {
        match side {
            SchemaRef::Stored(name) => self
                .by_name
                .get(name)
                .map(|&i| self.stored[i].schema.clone())
                .ok_or_else(|| format!("unknown stored schema {name}")),
            SchemaRef::Inline(inline) => match inline.format {
                SchemaFormat::Xsd => {
                    coma_xml::import_xsd(&inline.text, &inline.name).map_err(|e| e.to_string())
                }
                SchemaFormat::Sql => {
                    coma_sql::import_ddl(&inline.text, &inline.name).map_err(|e| e.to_string())
                }
            },
        }
    }
}

/// The plan the server runs for a wire plan spec.
fn plan_of(spec: &PlanSpec) -> MatchPlan {
    match spec {
        PlanSpec::TopKPruned(k) => plans::topk_pruned_plan(*k),
        PlanSpec::CandidateIndex(cap) => plans::candidate_index_plan(*cap),
        _ => MatchPlan::from(&MatchStrategy::paper_default()),
    }
}

/// The engine configuration a wire `MatchConfig` selects.
fn engine_config(config: &MatchConfig) -> EngineConfig {
    let cfg = EngineConfig::default()
        .with_parallel(config.parallel)
        .with_sparse(config.sparse)
        .with_fuse_pruning(config.fuse_pruning);
    match config.shards {
        Some(n) => cfg.with_shards(n),
        None => cfg,
    }
}

/// Builds the starting store: every pool schema, plus the chain mappings
/// member 0→1→2→3 of the reuse families (matched in-process).
fn build_store(pool: &Pool, path: &Path) -> Result<(), String> {
    std::fs::remove_file(path).ok();
    let repo = PersistentRepository::open(FileBackend::new(path)).map_err(|e| e.to_string())?;
    let lib = MatcherLibrary::standard();
    let aux = Auxiliary::standard();
    let engine = PlanEngine::new(&lib);
    let mut mappings = Vec::new();
    for f in 0..REUSE_FAMILIES {
        for k in 0..MEMBERS - 1 {
            let (s, t) = (
                &pool.stored[f * MEMBERS + k].schema,
                &pool.stored[f * MEMBERS + k + 1].schema,
            );
            let (sp, tp) = (
                PathSet::new(s).map_err(|e| e.to_string())?,
                PathSet::new(t).map_err(|e| e.to_string())?,
            );
            let ctx = MatchContext::new(s, t, &sp, &tp, &aux);
            let outcome = engine
                .execute(&ctx, &plans::topk_pruned_plan(5))
                .map_err(|e| e.to_string())?;
            mappings.push(outcome.result.to_mapping(&ctx, MappingKind::Automatic));
        }
    }
    repo.mutate(|r| {
        for s in &pool.stored {
            r.put_schema(s.schema.clone());
        }
        for m in mappings {
            r.put_mapping(m);
        }
    })
    .map_err(|e| e.to_string())
}

/// A spawned server; killed and reaped on drop unless shut down.
struct ServerProcess {
    child: Option<Child>,
    socket: PathBuf,
}

impl ServerProcess {
    /// Starts a server on a fresh copy of `template`; returns once it
    /// answers a `Ping`, with the time that took.
    fn start(template: &Path, dir: &Path, tag: usize) -> Result<(ServerProcess, f64), String> {
        let store = dir.join(format!("store-{}-{tag}.json", std::process::id()));
        let socket = dir.join(format!("svc-{}-{tag}.sock", std::process::id()));
        std::fs::copy(template, &store).map_err(|e| format!("copy store: {e}"))?;
        std::fs::remove_file(&socket).ok();
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let started = Instant::now();
        let child = Command::new(exe)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(&store)
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut server = ServerProcess {
            child: Some(child),
            socket,
        };
        let deadline = started + Duration::from_secs(30);
        loop {
            if let Ok(mut c) = Client::connect(&server.socket) {
                if matches!(c.call(&Request::Ping), Ok(Response::Pong)) {
                    return Ok((server, started.elapsed().as_secs_f64()));
                }
            }
            if Instant::now() > deadline {
                server.stop();
                return Err("server did not answer within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| e.to_string())
    }

    /// Sends `Shutdown` and waits for the process to exit.
    fn stop(&mut self) {
        if let Some(mut child) = self.child.take() {
            if let Ok(mut c) = Client::connect(&self.socket) {
                c.call(&Request::Shutdown).ok();
            }
            let deadline = Instant::now() + Duration::from_secs(10);
            while matches!(child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if matches!(child.try_wait(), Ok(None)) {
                child.kill().ok();
            }
            child.wait().ok();
        }
        std::fs::remove_file(&self.socket).ok();
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A `/proc/<pid>/<file>` field, as the number before any unit.
fn proc_field(pid: u32, file: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/{file}")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn stats(client: &mut Client) -> Result<CacheStats, String> {
    match client.call(&Request::Stats(TENANT.to_string())) {
        Ok(Response::Stats(s)) => Ok(s.cache),
        other => Err(format!("stats request failed: {other:?}")),
    }
}

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Ok,
    Failed,
    Refused,
}

/// One completed request.
struct Sample {
    seq: usize,
    kind: Kind,
    ms: f64,
    outcome: Outcome,
    /// The server's execution time of a match, µs.
    exec_micros: Option<u64>,
    /// The response, kept for sampled checks and traced framing replays.
    response: Option<MatchResponse>,
}

/// Runs `service-mixed`.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = crate::work_dir();
    // Inputs (untimed): the pool, the request sequence, the start store.
    let pool = Pool::generate(args)?;
    let requests = Arc::new(pool.requests(20_000, args.seed));
    let template = dir.join(format!("start-{}.json", std::process::id()));
    build_store(&pool, &template)?;

    // Setup: spawn on the starting store until the server answers. The
    // last of three starts serves the run.
    let mut setups = Vec::new();
    let mut server = None;
    for tag in 0..3 {
        if let Some(mut previous) = server.take() {
            ServerProcess::stop(&mut previous);
        }
        let (s, secs) = ServerProcess::start(&template, &dir, tag)?;
        setups.push(secs);
        server = Some(s);
    }
    let mut server = server.expect("three starts");
    report.set("setup_s", stats::median(&setups));
    let pid = server.pid();

    // Warm the hot set (untimed), then read the counters.
    let mut control = server.connect()?;
    for (s, t, p) in &pool.hot {
        let req = pool.match_request(pool.stored_ref(*s), pool.stored_ref(*t), p.clone(), false);
        match control.call(&req) {
            Ok(Response::Matched(_)) => {}
            other => return Err(format!("warm-up failed: {other:?}")),
        }
    }
    let before = stats(&mut control)?;
    let io_before = proc_field(pid, "io", "write_bytes");

    // Seeded sample of match responses to check against in-process runs.
    let mut rng = SplitMix64::new(args.seed ^ 0xC4EC_C4EC_C4EC_C4EC);
    let sampled: Vec<usize> = (0..requests.len())
        .filter(|&i| matches!(requests[i].0, Kind::Warm | Kind::Cold | Kind::Inline))
        .filter(|_| rng.chance(1, 12))
        .collect();
    let sampled = Arc::new(sampled);

    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let deadline = args.seconds;
    let mut tracers = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for _ in 0..CLIENTS {
            let mut client = server.connect()?;
            let (requests, sampled, next) = (Arc::clone(&requests), Arc::clone(&sampled), &next);
            let trace = args.trace;
            handles.push(scope.spawn(move || {
                let mut tracer = Tracer::new(trace, epoch);
                let mut out = Vec::new();
                while epoch.elapsed().as_secs_f64() < deadline {
                    let seq = next.fetch_add(1, Ordering::Relaxed);
                    let Some((kind, request)) = requests.get(seq) else {
                        break;
                    };
                    let sent = Instant::now();
                    let reply = client.call(request);
                    let took = sent.elapsed();
                    let (outcome, response) = match reply {
                        Ok(Response::Matched(m)) => (Outcome::Ok, Some(m)),
                        Ok(Response::SchemaStored(_)) => (Outcome::Ok, None),
                        Ok(Response::InvalidPlan(_)) => (Outcome::Refused, None),
                        _ => (Outcome::Failed, None),
                    };
                    let exec_micros = response.as_ref().map(|m| m.elapsed_micros);
                    if let Some(rt) =
                        tracer.record("client.round_trip", seq as u64, sent, took, None)
                    {
                        if let Some(us) = exec_micros {
                            tracer.record(
                                "server.exec",
                                seq as u64,
                                sent,
                                Duration::from_micros(us),
                                Some(rt),
                            );
                        }
                    }
                    let keep = trace || sampled.binary_search(&seq).is_ok();
                    out.push(Sample {
                        seq,
                        kind: *kind,
                        ms: took.as_secs_f64() * 1e3,
                        outcome,
                        exec_micros,
                        response: if keep { response } else { None },
                    });
                }
                (out, tracer)
            }));
        }
        for h in handles {
            let (out, tracer) = h.join().map_err(|_| "client thread panicked".to_string())?;
            samples.extend(out);
            tracers.push(tracer);
        }
        Ok(())
    })?;
    let elapsed = epoch.elapsed().as_secs_f64();
    samples.sort_by_key(|s| s.seq);

    let after = stats(&mut control)?;
    let io_after = proc_field(pid, "io", "write_bytes");
    let hwm_kib = proc_field(pid, "status", "VmHWM");
    drop(control);
    server.stop();
    let store_bytes = std::fs::metadata(dir.join(format!("store-{}-2.json", std::process::id())))
        .map(|m| m.len())
        .unwrap_or(0);

    // End-to-end metrics.
    let match_ms: Vec<f64> = samples
        .iter()
        .filter(|s| s.kind != Kind::Write && s.outcome == Outcome::Ok)
        .map(|s| s.ms)
        .collect();
    crate::batch::set_latency_metrics(&mut report, &match_ms, elapsed);
    let done = samples.iter().filter(|s| s.outcome == Outcome::Ok).count();
    report.set("throughput_per_s", done as f64 / elapsed);
    match hwm_kib {
        Some(kib) => report.set("peak_mem_mib", kib as f64 / 1024.0),
        None => report.note("peak_mem_mib: /proc/<pid>/status has no VmHWM"),
    }
    let kind_ms = |kinds: &[Kind]| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| kinds.contains(&s.kind) && s.outcome == Outcome::Ok)
            .map(|s| s.ms)
            .collect()
    };
    report.set(
        "service.warm_p50_ms",
        stats::median(&kind_ms(&[Kind::Warm])),
    );
    report.set(
        "service.cold_p50_ms",
        stats::median(&kind_ms(&[Kind::Cold, Kind::Inline])),
    );
    let writes = kind_ms(&[Kind::Write]);
    report.set("service.write_p50_ms", stats::median(&writes));
    if let Some(t) = stats::tail(&writes) {
        report.set("service.write_tail_ms", t.value);
    }

    // Counts per kind.
    report.attempted = samples.len() as u64;
    for &(kind, _) in &BLOCK {
        let of = |o: Outcome| {
            samples
                .iter()
                .filter(|s| s.kind == kind && s.outcome == o)
                .count()
        };
        let sent = samples.iter().filter(|s| s.kind == kind).count();
        let busy: f64 = samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.ms)
            .sum();
        report.note(format!(
            "{:<6} sent {sent:>5}  succeeded {:>5}  failed {:>3}  refused {:>3}  busy {:>8.0} ms",
            kind.label(),
            of(Outcome::Ok),
            of(Outcome::Failed),
            of(Outcome::Refused),
            busy
        ));
    }
    let failed = samples.iter().filter(|s| s.outcome != Outcome::Ok).count();
    if failed > 0 {
        report.fail_check(
            failed as u64,
            format!("{failed} requests failed or were refused"),
        );
    }
    report.note(format!(
        "{} requests over {CLIENTS} connections in {elapsed:.2} s; cache before {before:?}; after {after:?}",
        samples.len()
    ));

    // Output check: the sampled responses equal in-process execution.
    let checked = check_sample(&pool, &requests, &samples, &mut report)?;
    report.note(format!(
        "checked {checked} sampled responses against in-process execution"
    ));
    report.set(
        "failed_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );

    // Repository and cache layers, from outside the server.
    let writes_done = samples
        .iter()
        .filter(|s| s.kind == Kind::Write && s.outcome == Outcome::Ok)
        .count();
    if let (Some(a), Some(b)) = (io_before, io_after) {
        report.set(
            "repo.bytes_written_per_write",
            (b - a) as f64 / writes_done.max(1) as f64,
        );
    } else {
        report.note("repo.bytes_written_per_write: /proc/<pid>/io is not readable");
    }
    report.set("repo.store_bytes", store_bytes as f64);
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    report.set(
        "cache.matrix_hit_ratio",
        ratio(
            after.matrix_hits - before.matrix_hits,
            after.matrix_misses - before.matrix_misses,
        ),
    );
    report.set(
        "cache.index_hit_ratio",
        ratio(
            after.index_hits - before.index_hits,
            after.index_misses - before.index_misses,
        ),
    );
    report.set("cache.matrix_entries", after.matrix_entries as f64);

    if args.trace {
        let mut tracer = Tracer::new(true, epoch);
        for t in tracers {
            tracer.absorb(t);
        }
        replay_layers(&pool, &requests, &samples, &tracer, &dir, &mut report)?;
        report.set("traced.latency_p50_ms", stats::median(&match_ms));
        report.set("traced.throughput_per_s", done as f64 / elapsed);
        report.note(format!("{} spans recorded", tracer.spans().len()));
        crate::write_trace(args, &tracer);
    }
    for tag in 0..3 {
        std::fs::remove_file(dir.join(format!("store-{}-{tag}.json", std::process::id()))).ok();
    }
    std::fs::remove_file(&template).ok();
    Ok(report)
}

/// In-process execution of a match request, as the server would answer
/// it (its sorted correspondences).
fn in_process(pool: &Pool, req: &MatchRequest) -> Result<Vec<(String, String, u64)>, String> {
    let s = pool.resolve(&req.source)?;
    let t = pool.resolve(&req.target)?;
    let (sp, tp) = (
        PathSet::new(&s).map_err(|e| e.to_string())?,
        PathSet::new(&t).map_err(|e| e.to_string())?,
    );
    let lib = MatcherLibrary::standard();
    let aux = Auxiliary::standard();
    let ctx = MatchContext::new(&s, &t, &sp, &tp, &aux);
    let outcome = PlanEngine::with_config(&lib, engine_config(&req.config))
        .execute(&ctx, &plan_of(&req.plan))
        .map_err(|e| e.to_string())?;
    let mapping = outcome.result.to_mapping(&ctx, MappingKind::Automatic);
    let mut out: Vec<(String, String, u64)> = mapping
        .correspondences
        .iter()
        .map(|c| (c.source.clone(), c.target.clone(), c.similarity.to_bits()))
        .collect();
    out.sort_by(|a, b| {
        f64::from_bits(b.2)
            .partial_cmp(&f64::from_bits(a.2))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
            .then_with(|| a.1.cmp(&b.1))
    });
    Ok(out)
}

/// Compares every kept sampled response with in-process execution; a
/// mismatch fails the request. Returns how many were checked.
fn check_sample(
    pool: &Pool,
    requests: &[(Kind, Request)],
    samples: &[Sample],
    report: &mut Report,
) -> Result<usize, String> {
    let mut checked = 0;
    let mut seen: HashMap<String, Vec<(String, String, u64)>> = HashMap::new();
    for s in samples {
        let (Some(resp), Request::Match(req)) = (&s.response, &requests[s.seq].1) else {
            continue;
        };
        if !matches!(s.kind, Kind::Warm | Kind::Cold | Kind::Inline) || checked >= 24 {
            continue;
        }
        let key = format!("{:?}|{:?}|{:?}", req.source, req.target, req.plan);
        let expected = match seen.get(&key) {
            Some(e) => e.clone(),
            None => {
                let e = in_process(pool, req)?;
                seen.insert(key, e.clone());
                e
            }
        };
        let got: Vec<(String, String, u64)> = resp
            .correspondences
            .iter()
            .map(|c| {
                (
                    c.source_path.clone(),
                    c.target_path.clone(),
                    c.similarity.to_bits(),
                )
            })
            .collect();
        checked += 1;
        if got != expected {
            report.fail_check(
                1,
                format!(
                    "request {} ({}): response differs from in-process execution",
                    s.seq,
                    s.kind.label()
                ),
            );
        }
    }
    if checked == 0 {
        report.fail_check(1, "no sampled response was checked");
    }
    Ok(checked)
}

/// The traced run's layer replays over the run's exact inputs: import,
/// unfolding, fingerprinting, analysis and framing, plus one timed
/// repository write on the final store.
fn replay_layers(
    pool: &Pool,
    requests: &[(Kind, Request)],
    samples: &[Sample],
    tracer: &Tracer,
    dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let totals = tracer.totals();
    let exec = totals.get("server.exec").copied().unwrap_or_default();
    let round = totals.get("client.round_trip").copied().unwrap_or_default();
    report.set("server.exec_ms", exec.mean_ms());
    let matched = samples.iter().filter(|s| s.exec_micros.is_some());
    let overhead: Vec<f64> = matched
        .map(|s| s.ms - s.exec_micros.unwrap_or(0) as f64 / 1e3)
        .collect();
    report.set(
        "server.overhead_ms",
        overhead.iter().sum::<f64>() / overhead.len().max(1) as f64,
    );
    report.note(format!(
        "{} round trips, {:.3} ms mean; server.exec self time {:.3} ms mean",
        round.count,
        round.mean_ms(),
        exec.self_ns as f64 / exec.count.max(1) as f64 / 1e6
    ));

    // Import: every inline schema the run sent.
    let mut import_ms = Vec::new();
    let mut nodes = 0usize;
    let (mut pathset_ms, mut fp_ms, mut analyze_ms) = (Vec::new(), Vec::new(), Vec::new());
    let lib = MatcherLibrary::standard();
    let aux = Auxiliary::standard();
    let analyzer = PlanAnalyzer::new(&lib, engine_config(&MatchConfig::default()));
    let mut encode_ms = Vec::new();
    let mut decode_ms = Vec::new();
    let mut bytes = Vec::new();
    for s in samples {
        let Request::Match(req) = &requests[s.seq].1 else {
            continue;
        };
        if matches!(req.plan, PlanSpec::Reuse(_)) {
            continue;
        }
        let mut sides = Vec::new();
        for side in [&req.source, &req.target] {
            let started = Instant::now();
            let schema = pool.resolve(side)?;
            if matches!(side, SchemaRef::Inline(_)) {
                import_ms.push(started.elapsed().as_secs_f64() * 1e3);
                nodes += schema.node_count();
            }
            sides.push(schema);
        }
        let started = Instant::now();
        let sp = PathSet::new(&sides[0]).map_err(|e| e.to_string())?;
        let tp = PathSet::new(&sides[1]).map_err(|e| e.to_string())?;
        pathset_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        std::hint::black_box((
            schema_fingerprint(&sides[0], &sp),
            schema_fingerprint(&sides[1], &tp),
        ));
        fp_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let ctx = MatchContext::new(&sides[0], &sides[1], &sp, &tp, &aux);
        std::hint::black_box(analyzer.analyze(&plan_of(&req.plan), &TaskStats::gather(&ctx)));
        analyze_ms.push(started.elapsed().as_secs_f64() * 1e3);
        // Framing of the request and of its response.
        let response = s.response.clone().map(Response::Matched);
        let started = Instant::now();
        let mut buf = Vec::new();
        write_message(&mut buf, &requests[s.seq].1).map_err(|e| e.to_string())?;
        let mut resp_buf = Vec::new();
        if let Some(r) = &response {
            write_message(&mut resp_buf, r).map_err(|e| e.to_string())?;
        }
        encode_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let _: Option<Request> = read_message(&mut buf.as_slice()).map_err(|e| e.to_string())?;
        if response.is_some() {
            let _: Option<Response> =
                read_message(&mut resp_buf.as_slice()).map_err(|e| e.to_string())?;
            bytes.push(resp_buf.len() as f64);
        }
        decode_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.set("import.ms", mean(&import_ms));
    let import_total: f64 = import_ms.iter().sum();
    if import_total > 0.0 {
        report.set("import.nodes_per_ms", nodes as f64 / import_total);
    }
    report.set("graph.pathset_ms", mean(&pathset_ms));
    report.set("graph.fingerprint_ms", mean(&fp_ms));
    report.set("analyze.ms", mean(&analyze_ms));
    report.set("protocol.encode_ms", mean(&encode_ms));
    report.set("protocol.decode_ms", mean(&decode_ms));
    report.set("protocol.response_bytes", mean(&bytes));

    // One durable write on a copy of the starting store, timed.
    let copy = dir.join(format!("persist-{}.json", std::process::id()));
    let template = dir.join(format!("start-{}.json", std::process::id()));
    std::fs::copy(&template, &copy).map_err(|e| e.to_string())?;
    let repo = PersistentRepository::open(FileBackend::new(&copy)).map_err(|e| e.to_string())?;
    let schema = pool.stored[0].schema.clone();
    let persist_s = median_secs(5, || repo.mutate(|r| r.put_schema(schema.clone())));
    report.set("repo.persist_ms", persist_s * 1e3);
    std::fs::remove_file(&copy).ok();
    Ok(())
}
