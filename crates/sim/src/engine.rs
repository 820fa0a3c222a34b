//! The discrete-event engine.
//!
//! [`Engine<W, E>`] is a deterministic event calendar over a caller-supplied
//! world type `W` and event payload type `E`. Events are keyed by
//! `(time, sequence)`; the sequence number breaks ties in insertion order,
//! so two runs with identical inputs execute identical schedules.
//!
//! The payload type keeps the engine agnostic of everything above it while
//! letting hot compositions avoid allocation entirely: a payload is any
//! [`EventFire`] type, stored inline in the calendar's slab
//! ([`crate::calendar::Calendar`]) and referenced by `u32` handles. The
//! composition layer (the `tengig` core crate) schedules a plain `enum` of
//! its event kinds.

use crate::calendar::Calendar;
pub use crate::calendar::EventId;
use crate::prof::{CalendarCounters, EngineCounters};
use crate::sanitizer::{Sanitizer, ViolationKind};
use crate::time::Nanos;

/// An event payload the engine can execute.
///
/// Implementors are consumed by value when their scheduled instant
/// arrives, with mutable access to both the world and the engine (to
/// schedule follow-up events).
pub trait EventFire<W>: Sized {
    /// Execute the event.
    fn fire(self, world: &mut W, eng: &mut Engine<W, Self>);
}

/// A deterministic discrete-event scheduler over world state `W`.
pub struct Engine<W, E: EventFire<W>> {
    executed: u64,
    calendar: Calendar<E>,
    sanitizer: Option<Sanitizer>,
    /// Hard cap on executed events; guards against runaway feedback loops in
    /// model composition bugs. [`Engine::run`] panics when exceeded.
    pub event_limit: u64,
    /// Scheduling-verb totals for the deterministic profiling plane.
    prof: EngineCounters,
    _world: std::marker::PhantomData<fn(&mut W)>,
}

impl<W, E: EventFire<W>> Default for Engine<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W, E: EventFire<W>> Engine<W, E> {
    /// Create an empty engine at time zero.
    pub fn new() -> Self {
        Engine {
            executed: 0,
            calendar: Calendar::new(),
            sanitizer: None,
            event_limit: u64::MAX,
            prof: EngineCounters::default(),
            _world: std::marker::PhantomData,
        }
    }

    /// Scheduling-verb totals accumulated so far (deterministic plane).
    /// Summed across shards these are shard-count-invariant: every
    /// scheduling call site executes on exactly one shard at the
    /// same virtual instant whatever the shard count.
    #[inline]
    pub fn prof_counters(&self) -> EngineCounters {
        self.prof
    }

    /// The calendar's internal counters (deterministic but
    /// calendar-private — see [`CalendarCounters`]).
    #[inline]
    pub fn calendar_counters(&self) -> CalendarCounters {
        self.calendar.prof_counters()
    }

    /// Install a runtime invariant [`Sanitizer`] on this engine.
    ///
    /// Once installed, past-scheduling is recorded as a causality violation
    /// (instead of the debug assertion) and model layers can reach the
    /// ledger through [`Engine::sanitizer_mut`] from any event handler.
    pub fn install_sanitizer(&mut self, sanitizer: Sanitizer) {
        self.sanitizer = Some(sanitizer);
    }

    /// The installed sanitizer, if any.
    pub fn sanitizer(&self) -> Option<&Sanitizer> {
        self.sanitizer.as_ref()
    }

    /// Mutable access to the installed sanitizer, if any.
    pub fn sanitizer_mut(&mut self) -> Option<&mut Sanitizer> {
        self.sanitizer.as_mut()
    }

    /// Current virtual time. Monotonically non-decreasing across callbacks.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.calendar.now()
    }

    /// Number of events executed so far.
    #[inline]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending in the calendar (cancelled events
    /// excluded). Arrivals a caller holds back in a
    /// [`crate::FrontLane`] are not calendar events and are not counted,
    /// but a lane that holds any has its head in the calendar, so
    /// `pending() > 0` still means "something will fire". (The lab holds
    /// wire arrivals this way, so a long pipe's depth shows here as a
    /// handful of lane heads: the benchmark ledger's traced
    /// `calendar.pending_p50` on `wan_lossy` fell from 246 to 5. That
    /// is a per-layer figure; no report or count moved.)
    #[inline]
    pub fn pending(&self) -> usize {
        self.calendar.len()
    }

    /// `at` clamped to the clock, with the past-time policing that
    /// [`Engine::schedule_event_at`] describes.
    #[inline]
    fn not_before_now(&mut self, at: Nanos) -> Nanos {
        let now = self.calendar.now();
        if at < now {
            if let Some(s) = self.sanitizer.as_mut() {
                let detail = format!(
                    "handler scheduled an event at {} with the clock at {}",
                    at, now
                );
                s.record(ViolationKind::Causality, now, detail);
            } else {
                debug_assert!(at >= now, "event scheduled in the past: {} < {}", at, now);
            }
        }
        at.max(now)
    }

    /// Schedule `ev` to fire at absolute time `at`, returning a handle
    /// that [`Engine::rearm_at`] accepts.
    ///
    /// Scheduling in the past is a model bug and is rejected, never
    /// silently reordered: with a [`Sanitizer`] installed the engine
    /// records a causality violation (so tests can observe it); without
    /// one it panics in debug builds. Either way the event is clamped to
    /// `now` so release runs keep a monotonic clock.
    pub fn schedule_event_at(&mut self, at: Nanos, ev: E) -> EventId {
        let at = self.not_before_now(at);
        self.prof.sched_events += 1;
        self.calendar.schedule(at, ev)
    }

    /// Schedule `ev` to fire `delay` after the current time.
    pub fn schedule_event_in(&mut self, delay: Nanos, ev: E) -> EventId {
        let at = self.calendar.now().saturating_add(delay);
        self.schedule_event_at(at, ev)
    }

    /// Re-arm a timer ([`crate::Calendar::rearm`]): cancel `prev` (a
    /// no-op when it is `None`, already fired or already cancelled) and
    /// schedule `ev` at `at` with [`Engine::schedule_event_at`]'s pop
    /// order and past-time policing. Moving a live timer's deadline, as
    /// ACKs do to the RTO, usually costs no heap work.
    pub fn rearm_at(&mut self, prev: Option<EventId>, at: Nanos, ev: E) -> EventId {
        let at = self.not_before_now(at);
        self.prof.sched_timers += 1;
        self.calendar.rearm(prev, at, ev)
    }

    /// Schedule `ev` at strictly-future time `at` in the calendar's
    /// **front class** under the canonical `key`
    /// ([`crate::Calendar::schedule_front`]): at equal timestamps it
    /// fires before every normal event, and front events fire in `key`
    /// order, whatever the scheduling order. The sharded lab schedules
    /// every wire arrival this way, so an instant's arrivals apply in the
    /// same order on any shard count.
    ///
    /// Panics when `at <= now` — front-class events may not target the
    /// current instant (normal events of that instant may already have
    /// fired, which would break the class order), so callers must
    /// schedule them strictly ahead — or when `key >= 2^63`.
    pub fn schedule_front_at(&mut self, at: Nanos, key: u64, ev: E) -> EventId {
        self.prof.sched_front += 1;
        self.calendar.schedule_front(at, key, ev)
    }

    /// Timestamp of the earliest pending event, if any, without popping
    /// it. Used by the shard runner to publish each shard's next event
    /// time when computing the global synchronization window.
    pub fn peek_time(&mut self) -> Option<Nanos> {
        self.calendar.peek_time()
    }

    /// Run a single event if one is pending. Returns `false` when the
    /// calendar is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        let Some((_, ev)) = self.calendar.pop() else {
            return false;
        };
        self.executed += 1;
        ev.fire(world, self);
        true
    }

    /// Run until the calendar drains.
    ///
    /// Panics if `event_limit` is exceeded — an engine that never drains
    /// means some component keeps rescheduling itself unconditionally.
    pub fn run(&mut self, world: &mut W) {
        while self.step(world) {
            assert!(
                self.executed <= self.event_limit,
                "event limit {} exceeded at t={}",
                self.event_limit,
                self.calendar.now()
            );
        }
    }

    /// Run until the calendar drains or virtual time would pass `deadline`:
    /// [`Engine::run_before`] with the exclusive edge one nanosecond later.
    ///
    /// Events scheduled strictly after `deadline` remain queued; the clock is
    /// left at the last executed event (≤ `deadline`). The edge saturates,
    /// so `Nanos::MAX` leaves events at exactly that instant queued.
    pub fn run_until(&mut self, world: &mut W, deadline: Nanos) {
        self.run_before(world, deadline.saturating_add(Nanos(1)));
    }

    /// Run until the calendar drains or the next event lies at or past
    /// `end` (an **exclusive** deadline, unlike [`Engine::run_until`]'s
    /// inclusive one). Events at exactly `end` remain queued.
    ///
    /// This is the conservative-window primitive of the shard runner:
    /// a shard owning lookahead window `[T, T + L)` executes every local
    /// event strictly below `T + L` and stops, because an event at
    /// `T + L` could still be preceded by a cross-shard arrival at that
    /// same instant.
    pub fn run_before(&mut self, world: &mut W, end: Nanos) {
        while let Some(next) = self.calendar.peek_time() {
            if next >= end {
                break;
            }
            self.step(world);
            assert!(
                self.executed <= self.event_limit,
                "event limit {} exceeded at t={}",
                self.event_limit,
                self.calendar.now()
            );
        }
    }

    /// Run until `deadline` like [`Engine::run_until`], then set the clock
    /// to exactly `deadline`.
    ///
    /// `run_until` leaves `now` at the last executed event, which skews any
    /// rate computed as `bytes / now()` and makes back-to-back measurement
    /// windows (`advance_to(warmup)`, `advance_to(warmup + window)`) cover
    /// slightly more or less than `window` of virtual time. This variant
    /// pins the clock to the deadline; it is safe because every remaining
    /// event is strictly later than `deadline`.
    pub fn advance_to(&mut self, world: &mut W, deadline: Nanos) {
        self.run_until(world, deadline);
        self.calendar.advance_now_to(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tests' world: a log of labels and fire times (in ns).
    type Log = Vec<u64>;

    /// A small event vocabulary covering every scheduling pattern the
    /// tests exercise.
    enum Ev {
        /// Append a label to the log.
        Push(u64),
        /// Append the current time to the log.
        PushNow,
        /// Log the time, then schedule `PushNow` 5 ns ahead and one now.
        Spawn,
        /// Reschedule itself 1 ns ahead, forever.
        Respawn,
        /// Schedule `PushNow` at an absolute (possibly past) time.
        ScheduleAt(Nanos),
        /// Schedule `PushNow` after a delay.
        ScheduleIn(Nanos),
        /// Log `label` and re-arm `stale` as `Push(label + 1)` at `at` —
        /// the timer-reschedule pattern.
        Reschedule {
            stale: EventId,
            at: Nanos,
            label: u64,
        },
    }

    impl EventFire<Log> for Ev {
        fn fire(self, log: &mut Log, e: &mut Engine<Log, Ev>) {
            match self {
                Ev::Push(label) => log.push(label),
                Ev::PushNow => log.push(e.now().as_nanos()),
                Ev::Spawn => {
                    log.push(e.now().as_nanos());
                    e.schedule_event_in(Nanos(5), Ev::PushNow);
                    e.schedule_event_at(e.now(), Ev::PushNow);
                }
                Ev::Respawn => {
                    e.schedule_event_in(Nanos(1), Ev::Respawn);
                }
                Ev::ScheduleAt(at) => {
                    e.schedule_event_at(at, Ev::PushNow);
                }
                Ev::ScheduleIn(delay) => {
                    e.schedule_event_in(delay, Ev::PushNow);
                }
                Ev::Reschedule { stale, at, label } => {
                    log.push(label);
                    e.rearm_at(Some(stale), at, Ev::Push(label + 1));
                }
            }
        }
    }

    fn engine() -> Engine<Log, Ev> {
        Engine::new()
    }

    /// An engine with `Push(t)` scheduled at each `t`.
    fn engine_at(times: &[u64]) -> Engine<Log, Ev> {
        let mut eng = engine();
        for &t in times {
            eng.schedule_event_at(Nanos(t), Ev::Push(t));
        }
        eng
    }

    #[test]
    fn events_run_in_time_order() {
        let mut eng = engine();
        let mut log = Vec::new();
        eng.schedule_event_at(Nanos(30), Ev::Push(3));
        eng.schedule_event_at(Nanos(10), Ev::Push(1));
        eng.schedule_event_at(Nanos(20), Ev::Push(2));
        eng.run(&mut log);
        assert_eq!(log, vec![1, 2, 3]);
        assert_eq!(eng.now(), Nanos(30));
        assert_eq!(eng.executed(), 3);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut eng = engine();
        let mut log = Vec::new();
        for i in 0..100 {
            eng.schedule_event_at(Nanos(5), Ev::Push(i));
        }
        eng.run(&mut log);
        assert_eq!(log, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut eng = engine();
        let mut log = Vec::new();
        eng.schedule_event_at(Nanos(10), Ev::Spawn);
        eng.run(&mut log);
        assert_eq!(log, vec![10, 10, 15]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut eng = engine_at(&[5, 10, 15, 20]);
        let mut log = Vec::new();
        eng.run_until(&mut log, Nanos(12));
        assert_eq!(log, vec![5, 10]);
        assert_eq!(eng.pending(), 2);
        // Continuing runs the rest.
        eng.run(&mut log);
        assert_eq!(log, vec![5, 10, 15, 20]);
    }

    #[test]
    fn advance_to_lands_exactly_on_the_deadline() {
        let mut eng = engine_at(&[5, 10, 15, 20]);
        let mut log = Vec::new();
        eng.advance_to(&mut log, Nanos(12));
        assert_eq!(log, vec![5, 10]);
        assert_eq!(eng.now(), Nanos(12), "clock pinned to the deadline");
        // Pending events are untouched and still run at their own times.
        eng.advance_to(&mut log, Nanos(20));
        assert_eq!(log, vec![5, 10, 15, 20]);
        assert_eq!(eng.now(), Nanos(20));
        // An empty calendar still advances the clock.
        eng.advance_to(&mut log, Nanos(30));
        assert_eq!(eng.now(), Nanos(30));
    }

    #[test]
    fn run_before_excludes_the_deadline_instant() {
        let mut eng = engine_at(&[5, 10, 15]);
        let mut log = Vec::new();
        eng.run_before(&mut log, Nanos(10));
        assert_eq!(log, vec![5], "the event at the window end stays queued");
        assert_eq!(eng.peek_time(), Some(Nanos(10)));
        eng.run(&mut log);
        assert_eq!(log, vec![5, 10, 15]);
    }

    #[test]
    fn front_class_events_run_before_normals_of_the_same_instant() {
        const FRONT_LOW: u64 = 0;
        const FRONT_HIGH: u64 = 1;
        const NORMAL: u64 = 2;
        let mut eng = engine();
        let mut log = Vec::new();
        eng.schedule_event_at(Nanos(10), Ev::Push(NORMAL));
        // Scheduled out of key order: they still fire in key order.
        eng.schedule_front_at(Nanos(10), 7, Ev::Push(FRONT_HIGH));
        eng.schedule_front_at(Nanos(10), 3, Ev::Push(FRONT_LOW));
        eng.run(&mut log);
        assert_eq!(log, vec![FRONT_LOW, FRONT_HIGH, NORMAL]);
    }

    #[test]
    #[should_panic(expected = "event limit")]
    fn event_limit_trips_on_livelock() {
        let mut eng = engine();
        eng.event_limit = 1000;
        eng.schedule_event_at(Nanos(0), Ev::Respawn);
        eng.run(&mut Vec::new());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics_without_a_sanitizer() {
        let mut eng = engine();
        eng.schedule_event_at(Nanos(100), Ev::ScheduleAt(Nanos(50)));
        eng.run(&mut Vec::new());
    }

    #[test]
    fn past_scheduling_is_recorded_by_the_sanitizer() {
        let mut eng = engine();
        eng.install_sanitizer(Sanitizer::new(0xD06));
        let mut log = Vec::new();
        eng.schedule_event_at(Nanos(100), Ev::ScheduleAt(Nanos(50)));
        eng.run(&mut log);
        // The offending event still ran, clamped to the current time.
        assert_eq!(log, vec![100]);
        let s = eng.sanitizer().expect("sanitizer was installed");
        assert_eq!(s.violations().len(), 1);
        let v = &s.violations()[0];
        assert_eq!(v.kind, ViolationKind::Causality);
        assert_eq!(v.at, Nanos(100));
        assert!(v.detail.contains("50ns"), "{}", v.detail);
        assert!(s.report().contains("seed=0xd06"), "{}", s.report());
    }

    #[test]
    fn past_rearm_is_recorded_by_the_sanitizer() {
        let mut eng = engine();
        eng.install_sanitizer(Sanitizer::new(0xD06));
        let mut log = Vec::new();
        let stale = eng.schedule_event_at(Nanos(300), Ev::Push(0));
        eng.schedule_event_at(
            Nanos(100),
            Ev::Reschedule {
                stale,
                at: Nanos(50),
                label: 1,
            },
        );
        eng.run(&mut log);
        // The re-arm still replaced the pending event, clamped to now.
        assert_eq!(log, vec![1, 2]);
        assert_eq!(eng.now(), Nanos(100));
        let s = eng.sanitizer().expect("sanitizer was installed");
        assert_eq!(s.violations().len(), 1);
        let v = &s.violations()[0];
        assert_eq!(v.kind, ViolationKind::Causality);
        assert_eq!(v.at, Nanos(100));
        assert!(v.detail.contains("50ns"), "{}", v.detail);
    }

    #[test]
    fn saturating_delay_does_not_overflow() {
        let mut eng = engine();
        let mut log = Vec::new();
        eng.schedule_event_at(Nanos(100), Ev::ScheduleIn(Nanos::MAX));
        eng.run(&mut log);
        assert_eq!(log, vec![Nanos::MAX.as_nanos()]);
        assert_eq!(eng.now(), Nanos::MAX);
    }

    #[test]
    fn cancelled_events_never_fire_and_leave_pending_clean() {
        let mut eng = engine();
        let mut log = Vec::new();
        let a = eng.schedule_event_at(Nanos(10), Ev::Push(1));
        eng.schedule_event_at(Nanos(20), Ev::Push(2));
        assert_eq!(eng.pending(), 2);
        // Each re-arm cancels its predecessor: earlier, later, and from
        // an already-superseded handle (which cancels nothing).
        let b = eng.rearm_at(Some(a), Nanos(5), Ev::Push(3));
        let c = eng.rearm_at(Some(b), Nanos(30), Ev::Push(4));
        assert_eq!(eng.pending(), 2);
        eng.rearm_at(Some(b), Nanos(40), Ev::Push(5));
        assert_eq!(eng.pending(), 3, "a superseded handle is inert");
        eng.run(&mut log);
        assert_eq!(log, vec![2, 4, 5]);
        assert_eq!(eng.executed(), 3, "cancelled events are not executed");
        eng.rearm_at(Some(c), Nanos(50), Ev::Push(6));
        assert_eq!(eng.pending(), 1, "a fired handle is inert");
    }

    #[test]
    fn cancel_from_within_a_handler_kills_a_pending_timer() {
        // The timer-reschedule pattern: a handler cancels a previously
        // armed event and arms a replacement.
        const STALE: u64 = 0;
        const RESCHEDULE: u64 = 1;
        const FRESH: u64 = RESCHEDULE + 1;
        let mut eng = engine();
        let mut log = Vec::new();
        let stale = eng.schedule_event_at(Nanos(100), Ev::Push(STALE));
        eng.schedule_event_at(
            Nanos(50),
            Ev::Reschedule {
                stale,
                at: Nanos(200),
                label: RESCHEDULE,
            },
        );
        eng.run(&mut log);
        assert_eq!(log, vec![RESCHEDULE, FRESH]);
        assert_eq!(eng.now(), Nanos(200));
    }
}
