//! Span recording for the traced pass.  Spans are opened and closed from the
//! benchmark's own code, around its calls into each layer, plus one span per protocol
//! round through `TwoClouds::set_trace_hook`; they stay in memory until the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use sectopk_metrics::TraceHook;

/// One closed span.  `parent` is the span that caused it; spans of one query share
/// `query`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub session: usize,
    pub query: usize,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn millis(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open, outermost first.
    open: Vec<usize>,
    query: usize,
}

/// The spans of one session.  A session runs on one thread, so spans nest strictly and
/// a stack of open spans is enough to find each span's parent.
pub struct Recorder {
    epoch: Instant,
    session: usize,
    state: Mutex<State>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (shared by all sessions of a run,
    /// so that their spans share one timeline).
    pub fn new(epoch: Instant, session: usize) -> Self {
        Recorder { epoch, session, state: Mutex::new(State::default()) }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a recorder is used by one thread; no holder can have panicked")
    }

    /// Start the spans of query number `query`.
    pub fn begin_query(&self, query: usize) {
        self.state().query = query;
    }

    pub fn open(&self, name: &str) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut state = self.state();
        let id = state.spans.len();
        let span = Span {
            id,
            parent: state.open.last().copied(),
            session: self.session,
            query: state.query,
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
        };
        state.spans.push(span);
        state.open.push(id);
    }

    /// Close the innermost open span.
    pub fn close(&self) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let mut state = self.state();
        if let Some(id) = state.open.pop() {
            state.spans[id].end_ns = now;
        }
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Protocol rounds arrive through the program's hook: one `round:<kind>` span each,
/// whose parent is whatever benchmark span is open (`sec_query`).
impl TraceHook for Recorder {
    fn enter(&self, span: &str) {
        self.open(&format!("round:{span}"));
    }

    fn exit(&self, _span: &str) {
        self.close();
    }
}

/// Write `spans` as JSON lines to `path`, creating its directory.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"session\":{},\"query\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.session, s.query, s.id, parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_rounds_hang_off_the_open_span() {
        let rec = Recorder::new(Instant::now(), 3);
        rec.begin_query(5);
        rec.span("query", || {
            rec.span("sec_query", || {
                rec.enter("compare");
                rec.exit("compare");
            });
        });
        let spans = rec.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["query", "sec_query", "round:compare"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.query == 5 && s.session == 3 && s.end_ns >= s.start_ns));
        assert!(spans[2].start_ns >= spans[1].start_ns && spans[2].end_ns <= spans[1].end_ns);
    }
}
