//! Canned server-level refusal responses.
//!
//! These are the answers the *admission and lifecycle* layer gives before (or
//! instead of) a tenant's [`xpsat_service::ProtocolServer`] ever sees the request.
//! Each carries the structured error object of the protocol's error taxonomy;
//! clients classify refusals by `error.kind`.

use xpsat_service::{error_response, Json};

/// The explicit backpressure response: the retryable `overloaded` kind tells a
/// well-behaved client to back off and retry, distinguishing load shedding from
/// request errors.
pub fn overloaded_response(reason: &str) -> Json {
    error_response(
        "overloaded",
        &format!("server overloaded: {reason}"),
        None,
        true,
    )
}

/// An *admitted* request that was dropped by the shedder (queue-full eviction or
/// CoDel delay control).  Same `overloaded` kind — clients treat it identically —
/// plus `"shed":true` so load tooling can tell admission refusals from sheds.
pub fn shed_response(reason: &str) -> Json {
    let mut response = overloaded_response(reason);
    if let Json::Obj(fields) = &mut response {
        fields.push(("shed".to_string(), Json::Bool(true)));
    }
    response
}

/// The drain-time answer: the server is going away; retry against a replacement.
pub fn shutting_down_response(reason: &str) -> Json {
    error_response(
        "shutting_down",
        &format!("server shutting down: {reason}"),
        None,
        true,
    )
}

/// The backstop answer when a request's worker was declared stuck by the watchdog
/// and its connection thread gave up waiting.  Not retryable by default: the same
/// request would likely wedge the replacement worker too.
pub fn abandoned_response() -> Json {
    error_response(
        "internal_error",
        "request abandoned: its worker was declared stuck by the watchdog",
        None,
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kind(response: &Json) -> Option<&str> {
        response
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
    }

    #[test]
    fn refusals_carry_the_error_taxonomy() {
        let over = overloaded_response("test");
        assert_eq!(kind(&over), Some("overloaded"));
        assert_eq!(over.get("overloaded"), None);
        assert_eq!(over.get("shed"), None);

        let shed = shed_response("test");
        assert_eq!(kind(&shed), Some("overloaded"));
        assert_eq!(shed.get("shed").and_then(Json::as_bool), Some(true));

        let down = shutting_down_response("test");
        assert_eq!(kind(&down), Some("shutting_down"));
        assert_eq!(down.get("shutting_down"), None);
        let retryable = down
            .get("error")
            .and_then(|e| e.get("retryable"))
            .and_then(Json::as_bool);
        assert_eq!(retryable, Some(true));

        assert_eq!(kind(&abandoned_response()), Some("internal_error"));
    }
}
