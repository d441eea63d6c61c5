//! The generated scoring programs and the independent oracle that checks
//! every answer.
//!
//! The oracle evaluates each program's own expression tree with naive
//! loops; it shares no code with `dm-matrix` or `dm-lang`. Alongside each
//! value it carries the same expression evaluated on absolute values,
//! which bounds the rounding error of any evaluation order: an element may
//! differ from the oracle by at most [`REL_TOL`] times that magnitude.
//! Compiled plans reorder matmul chains and batched scoring runs a gemm
//! instead of a gemv, so results are never compared bit for bit.

use crate::rng::{Rng, Zipf};
use dmml::serve::{Request, ScoreResult};

/// Allowed error relative to the absolute-value evaluation. The worst
/// rounding bound of a length-`n` dot product is about `n * 2^-53` of it;
/// with chains of at most 10 factors of dimension at most 6, or the
/// 128-long rows of the model, that is below `2e-14`, so `1e-12` leaves a
/// wide margin while any wrong element still fails by orders of magnitude.
pub const REL_TOL: f64 = 1e-12;

/// An expression over a program's inputs (indices into `Program::inputs`).
#[derive(Debug, Clone)]
pub enum Expr {
    Input(usize),
    MatMul(Box<Expr>, Box<Expr>),
    T(Box<Expr>),
    Sum(Box<Expr>),
    ColSums(Box<Expr>),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
}

#[derive(Debug, Clone)]
pub struct InputSpec {
    pub name: String,
    pub rows: usize,
    pub cols: usize,
}

#[derive(Debug, Clone)]
pub struct Program {
    pub text: String,
    pub inputs: Vec<InputSpec>,
    pub expr: Expr,
}

/// A dense value with its absolute-value bound, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct OVal {
    pub rows: usize,
    pub cols: usize,
    pub v: Vec<f64>,
    pub mag: Vec<f64>,
}

fn matmul(a: &OVal, b: &OVal) -> OVal {
    assert_eq!(a.cols, b.rows, "oracle shape mismatch");
    let (n, k, m) = (a.rows, a.cols, b.cols);
    let mut v = vec![0.0; n * m];
    let mut mag = vec![0.0; n * m];
    for i in 0..n {
        for j in 0..m {
            let (mut s, mut g) = (0.0, 0.0);
            for p in 0..k {
                s += a.v[i * k + p] * b.v[p * m + j];
                g += a.mag[i * k + p] * b.mag[p * m + j];
            }
            v[i * m + j] = s;
            mag[i * m + j] = g;
        }
    }
    OVal { rows: n, cols: m, v, mag }
}

fn transpose(a: &OVal) -> OVal {
    let mut v = vec![0.0; a.v.len()];
    let mut mag = vec![0.0; a.v.len()];
    for i in 0..a.rows {
        for j in 0..a.cols {
            v[j * a.rows + i] = a.v[i * a.cols + j];
            mag[j * a.rows + i] = a.mag[i * a.cols + j];
        }
    }
    OVal { rows: a.cols, cols: a.rows, v, mag }
}

fn ewise(a: &OVal, b: &OVal, f: fn(f64, f64) -> f64, g: fn(f64, f64) -> f64) -> OVal {
    assert_eq!((a.rows, a.cols), (b.rows, b.cols), "oracle shape mismatch");
    OVal {
        rows: a.rows,
        cols: a.cols,
        v: a.v.iter().zip(&b.v).map(|(x, y)| f(*x, *y)).collect(),
        mag: a.mag.iter().zip(&b.mag).map(|(x, y)| g(*x, *y)).collect(),
    }
}

impl OVal {
    pub fn matrix(rows: usize, cols: usize, data: &[f64]) -> OVal {
        OVal { rows, cols, v: data.to_vec(), mag: data.iter().map(|x| x.abs()).collect() }
    }

    /// Whether `got` agrees with this value within [`REL_TOL`].
    pub fn check(&self, got: &ScoreResult) -> Result<(), String> {
        let (rows, cols, data): (usize, usize, &[f64]) = match got {
            ScoreResult::Scalar(s) => (1, 1, std::slice::from_ref(s)),
            ScoreResult::Matrix { rows, cols, data } => (*rows, *cols, data),
        };
        if (rows, cols) != (self.rows, self.cols) || data.len() != self.v.len() {
            return Err(format!("shape {rows}x{cols}, oracle {}x{}", self.rows, self.cols));
        }
        for (i, ((g, w), m)) in data.iter().zip(&self.v).zip(&self.mag).enumerate() {
            // Written so that a NaN anywhere fails the check.
            let within = (g - w).abs() <= REL_TOL * m + f64::MIN_POSITIVE;
            if !within {
                return Err(format!("element {i}: got {g:e}, oracle {w:e} (bound {m:e})"));
            }
        }
        Ok(())
    }
}

/// Evaluate `e` over bound input values with naive loops.
pub fn eval(e: &Expr, inputs: &[OVal]) -> OVal {
    match e {
        Expr::Input(i) => inputs[*i].clone(),
        Expr::MatMul(a, b) => matmul(&eval(a, inputs), &eval(b, inputs)),
        Expr::T(a) => transpose(&eval(a, inputs)),
        Expr::Sum(a) => {
            let a = eval(a, inputs);
            OVal { rows: 1, cols: 1, v: vec![a.v.iter().sum()], mag: vec![a.mag.iter().sum()] }
        }
        Expr::ColSums(a) => {
            let a = eval(a, inputs);
            let mut v = vec![0.0; a.cols];
            let mut mag = vec![0.0; a.cols];
            for i in 0..a.rows {
                for j in 0..a.cols {
                    v[j] += a.v[i * a.cols + j];
                    mag[j] += a.mag[i * a.cols + j];
                }
            }
            OVal { rows: 1, cols: a.cols, v, mag }
        }
        Expr::Add(a, b) => ewise(&eval(a, inputs), &eval(b, inputs), |x, y| x + y, |x, y| x + y),
        Expr::Sub(a, b) => ewise(&eval(a, inputs), &eval(b, inputs), |x, y| x - y, |x, y| x + y),
        Expr::Mul(a, b) => ewise(&eval(a, inputs), &eval(b, inputs), |x, y| x * y, |x, y| x * y),
    }
}

impl Program {
    /// Fresh seeded input values for one request.
    pub fn draw_inputs(&self, rng: &mut Rng) -> Vec<Vec<f64>> {
        self.inputs.iter().map(|s| rng.vec(s.rows * s.cols)).collect()
    }

    /// The scoring request binding `values`, and the oracle's answer.
    pub fn request(&self, tenant: &str, values: Vec<Vec<f64>>) -> (Request, OVal) {
        let bound: Vec<OVal> =
            self.inputs.iter().zip(&values).map(|(s, d)| OVal::matrix(s.rows, s.cols, d)).collect();
        let want = eval(&self.expr, &bound);
        let mut req = Request::score(tenant, &self.text);
        for (s, d) in self.inputs.iter().zip(values) {
            req = req.matrix(&s.name, s.rows, s.cols, d);
        }
        (req, want)
    }
}

/// `W %*% x` over a fixed `rows x cols` model.
pub fn model_program(rows: usize, cols: usize) -> Program {
    Program {
        text: "W %*% x".to_owned(),
        inputs: vec![
            InputSpec { name: "W".to_owned(), rows, cols },
            InputSpec { name: "x".to_owned(), rows: cols, cols: 1 },
        ],
        expr: Expr::MatMul(Box::new(Expr::Input(0)), Box::new(Expr::Input(1))),
    }
}

/// The churn catalog: `n` distinct programs, each a matmul chain of 4–10
/// inputs with dimensions 2–6, wrapped in `sum`, `colSums`, `t(.) %*% (.)`
/// or an elementwise operation with one more input. Input names carry the
/// program's index, so every program has its own plan-cache key.
pub fn churn_catalog(seed: u64, n: usize) -> Vec<Program> {
    let mut rng = Rng::derive(seed, &[0xca7]);
    (0..n)
        .map(|p| {
            let len = rng.range(4, 10);
            let dims: Vec<usize> = (0..=len).map(|_| rng.range(2, 6)).collect();
            let mut inputs: Vec<InputSpec> = (0..len)
                .map(|j| InputSpec { name: format!("p{p}m{j}"), rows: dims[j], cols: dims[j + 1] })
                .collect();
            let names: Vec<String> = inputs.iter().map(|s| s.name.clone()).collect();
            let chain_text = names.join(" %*% ");
            let chain = (1..len).fold(Expr::Input(0), |acc, j| {
                Expr::MatMul(Box::new(acc), Box::new(Expr::Input(j)))
            });
            let (r, c) = (dims[0], dims[len]);
            let extra = format!("p{p}e");
            let (text, expr) = match rng.range(0, 5) {
                0 => (format!("sum({chain_text})"), Expr::Sum(Box::new(chain))),
                1 => (format!("colSums({chain_text})"), Expr::ColSums(Box::new(chain))),
                2 => {
                    let e = rng.range(2, 6);
                    inputs.push(InputSpec { name: extra.clone(), rows: r, cols: e });
                    (
                        format!("t({chain_text}) %*% {extra}"),
                        Expr::MatMul(
                            Box::new(Expr::T(Box::new(chain))),
                            Box::new(Expr::Input(len)),
                        ),
                    )
                }
                k => {
                    inputs.push(InputSpec { name: extra.clone(), rows: r, cols: c });
                    let rhs = Box::new(Expr::Input(len));
                    let (op, expr) = match k {
                        3 => ("*", Expr::Mul(Box::new(chain), rhs)),
                        4 => ("+", Expr::Add(Box::new(chain), rhs)),
                        _ => ("-", Expr::Sub(Box::new(chain), rhs)),
                    };
                    (format!("({chain_text}) {op} {extra}"), expr)
                }
            };
            Program { text, inputs, expr }
        })
        .collect()
}

/// Zipf(1) popularity over the catalog, rank = catalog index.
pub fn churn_popularity(n: usize) -> Zipf {
    Zipf::new(n, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmml::lang::exec::{Env, Executor, Val};
    use dmml::lang::parser;
    use dmml::matrix::{Dense, Matrix};

    fn via_lang(p: &Program, values: &[Vec<f64>]) -> ScoreResult {
        let (g, root) = parser::parse(&p.text).expect("catalog programs parse");
        let mut env = Env::new();
        for (s, d) in p.inputs.iter().zip(values) {
            env.bind(&s.name, Matrix::Dense(Dense::from_vec(s.rows, s.cols, d.clone()).unwrap()));
        }
        let v = Executor::new(&g).eval(root, &env).expect("catalog programs evaluate");
        match v {
            Val::Scalar(s) => ScoreResult::Scalar(s),
            Val::Matrix(m) => {
                let d = m.to_dense();
                ScoreResult::Matrix { rows: d.rows(), cols: d.cols(), data: d.data().to_vec() }
            }
        }
    }

    #[test]
    fn oracle_agrees_with_dm_lang_on_a_catalog_sample() {
        let cat = churn_catalog(11, 512);
        let mut rng = Rng::new(5);
        for p in cat.iter().step_by(7) {
            let values = p.draw_inputs(&mut rng);
            let (_, want) = p.request("t", values.clone());
            want.check(&via_lang(p, &values)).unwrap_or_else(|e| panic!("{}: {e}", p.text));
        }
        let m = model_program(64, 128);
        let values = m.draw_inputs(&mut rng);
        let (_, want) = m.request("t", values.clone());
        want.check(&via_lang(&m, &values)).unwrap();
    }

    #[test]
    fn oracle_rejects_a_wrong_answer() {
        let m = model_program(4, 3);
        let mut rng = Rng::new(9);
        let values = m.draw_inputs(&mut rng);
        let (_, want) = m.request("t", values.clone());
        let mut data = want.v.clone();
        data[2] += 1e-6;
        assert!(want.check(&ScoreResult::Matrix { rows: 4, cols: 1, data }).is_err());
        assert!(want.check(&ScoreResult::Scalar(0.0)).is_err());
    }

    #[test]
    fn catalog_programs_are_distinct_and_in_range() {
        let cat = churn_catalog(3, 512);
        let texts: std::collections::HashSet<&str> = cat.iter().map(|p| p.text.as_str()).collect();
        assert_eq!(texts.len(), 512);
        for p in &cat {
            assert!(p
                .inputs
                .iter()
                .all(|s| (2..=6).contains(&s.rows) && (2..=6).contains(&s.cols)));
            let chain = p.inputs.iter().filter(|s| !s.name.ends_with('e')).count();
            assert!((4..=10).contains(&chain), "{}", p.text);
        }
    }
}
