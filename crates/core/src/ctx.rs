//! The request shape: what every operation carries down the stack.
//!
//! A [`RequestCtx`] travels with an operation — through service
//! admission and the retry loop into a fallible core's register phases —
//! carrying the two things every layer needs to know about the request it
//! works for: the wall-clock [`Deadline`] past which it must stop trying,
//! and the identity of the causal span it runs under (so each layer
//! parents its own spans under the request that caused the work). It is a
//! tiny `Copy` value, cheap to pass by value everywhere, and has an inert
//! default ([`RequestCtx::none`]) for unbounded, untraced callers.

use snapshot_obs::SpanId;

use crate::Deadline;

/// The per-request context: deadline and causal span.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestCtx {
    /// The instant past which the request fails fast instead of waiting
    /// ([`Deadline::none`] when the caller set no budget).
    pub deadline: Deadline,
    /// The span the current work runs under ([`SpanId::NONE`] when the
    /// request is untraced).
    pub span: SpanId,
}

impl RequestCtx {
    /// No deadline, no span: work done under it is unbounded and
    /// untraced.
    pub const fn none() -> Self {
        RequestCtx { deadline: Deadline::none(), span: SpanId::NONE }
    }

    /// An untraced context bounded by `deadline`.
    pub const fn by(deadline: Deadline) -> Self {
        RequestCtx { deadline, span: SpanId::NONE }
    }

    /// A copy of this context running under `span` (the deadline is
    /// kept: it belongs to the request, not to the layer).
    pub fn under(self, span: SpanId) -> Self {
        RequestCtx { span, ..self }
    }

    /// Whether any span is attached.
    pub fn is_traced(&self) -> bool {
        !self.span.is_none()
    }
}
